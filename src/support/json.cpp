#include "support/json.h"

#include <charconv>
#include <cstdio>

namespace simtomp::json {

namespace {

void appendQuoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

Writer& Writer::open(char bracket, Layout layout) {
  before();
  const size_t nl = out_.rfind('\n');
  const size_t line = nl == std::string::npos ? 0 : nl + 1;
  size_t indent = 0;
  if (layout == Layout::kLines) {
    while (line + indent < out_.size() && out_[line + indent] == ' ') ++indent;
  } else if (layout == Layout::kHanging) {
    indent = out_.size() - line + 1;
  }
  stack_.push_back({layout, bracket == '{' ? '}' : ']', 0, indent});
  out_ += bracket;
  return *this;
}

Writer& Writer::end() {
  SIMTOMP_CHECK(!stack_.empty() && !afterKey_, "json: nothing to close");
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.layout == Layout::kLines && frame.count > 0) {
    out_ += '\n';
    out_.append(frame.indent, ' ');
  }
  out_ += frame.close;
  return after();
}

Writer& Writer::key(std::string_view name) {
  SIMTOMP_CHECK(!stack_.empty() && stack_.back().close == '}' && !afterKey_,
                "json: key outside an object");
  separate();
  appendQuoted(out_, name);
  out_ += ": ";
  afterKey_ = true;
  return *this;
}

Writer& Writer::string(std::string_view text) {
  before();
  appendQuoted(out_, text);
  return after();
}

Writer& Writer::uint(uint64_t value) {
  char buf[20];
  return token({buf, std::to_chars(buf, buf + sizeof(buf), value).ptr});
}

Writer& Writer::fixed(double value, int digits) {
  char buf[512];  // DBL_MAX has 309 integer digits
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return token(buf);
}

Writer& Writer::token(std::string_view text) {
  before();
  out_ += text;
  return after();
}

void Writer::separate() {
  Frame& frame = stack_.back();
  if (frame.layout == Layout::kLines) {
    out_ += frame.count > 0 ? ",\n" : "\n";
    out_.append(frame.indent + 2, ' ');
  } else if (frame.count > 0) {
    out_ += frame.layout == Layout::kInline ? ", " : ",\n";
    if (frame.layout == Layout::kHanging) out_.append(frame.indent, ' ');
  }
  ++frame.count;
}

void Writer::before() {
  if (afterKey_) {
    afterKey_ = false;
  } else if (!stack_.empty()) {
    SIMTOMP_CHECK(stack_.back().close == ']', "json: member without a key");
    separate();
  }
}

Writer& Writer::after() {
  if (stack_.empty()) out_ += '\n';
  return *this;
}

Status writeFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::internal("cannot open " + path + " for writing");
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), file) ==
                     text.size();
  // fclose flushes the stdio buffer, which is where a full disk shows.
  if (std::fclose(file) != 0 || !wrote) {
    return Status::internal("failed writing " + path);
  }
  return Status::ok();
}

}  // namespace simtomp::json
