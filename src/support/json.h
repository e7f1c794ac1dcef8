// The one JSON writer. Kernel stats, metrics and profile dumps, Chrome
// traces, the tuning cache and the BENCH_*.json files all render through
// it, so escaping, number formats, commas and indentation live here only.
//
// It appends to a std::string; there is no DOM and no parser. The caller
// emits keys and values in document order and picks a layout per
// container:
//   kInline   {"a": 1, "b": [2, 3]}
//   kLines    one element per line, indented two past the line that
//             opened the container; the bracket closes on its own line
//   kHanging  the first element follows the bracket, the others align one
//             column past it, and the bracket closes after the last one
// Empty containers are {} or [] in every layout. Strings are escaped per
// RFC 8259: \" \\ \b \f \n \r \t, \u00XX for the other bytes below 0x20,
// every byte from 0x20 up (UTF-8 included) unchanged. A newline follows
// the outermost value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace simtomp::json {

enum class Layout { kInline, kLines, kHanging };

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& object(Layout layout = Layout::kInline) { return open('{', layout); }
  Writer& array(Layout layout = Layout::kInline) { return open('[', layout); }
  /// Close the innermost open object or array.
  Writer& end();
  /// The next member's key; the value written next completes it.
  Writer& key(std::string_view name);

  Writer& string(std::string_view text);
  Writer& uint(uint64_t value);
  Writer& boolean(bool value) { return token(value ? "true" : "false"); }
  /// `value` with exactly `digits` digits after the decimal point.
  Writer& fixed(double value, int digits);

 private:
  struct Frame {
    Layout layout;
    char close;
    size_t count;
    size_t indent;  ///< kLines: the opening line's indent; kHanging: column
  };

  Writer& open(char bracket, Layout layout);
  /// A scalar already in its JSON spelling.
  Writer& token(std::string_view text);
  /// Separator and indentation before a key or an array element.
  void separate();
  /// Before a value: its key placed it already, or it is an element.
  void before();
  /// After a value: a newline once the outermost one is complete.
  Writer& after();

  std::string& out_;
  std::vector<Frame> stack_;
  bool afterKey_ = false;
};

/// Write a finished document to `path`, checking open, write and close.
Status writeFile(const std::string& path, std::string_view text);

}  // namespace simtomp::json
