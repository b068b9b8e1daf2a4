#include "net/wire.hpp"

#include <charconv>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "robust/fallback.hpp"

namespace cfsf::net {

namespace {

/// Strict cursor over the integers/objects/arrays subset of JSON the
/// wire format uses.  Every helper returns false with `error` set on
/// the first deviation; offsets are byte positions into the body.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  const std::string& error() const { return error_; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Expect(char c) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  /// True when the next non-space byte is `c` (not consumed).
  bool Peek(char c) {
    SkipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool ParseKey(std::string* key) {
    if (!Expect('"')) return false;
    key->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c == '\\') return Fail("escapes in keys are not supported");
      key->push_back(c);
    }
    return Expect('"');
  }

  bool ParseUint(std::uint64_t* value) {
    SkipWs();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == begin) return Fail("expected a non-negative integer");
    const auto [ptr, ec] = std::from_chars(text_.data() + begin,
                                           text_.data() + pos_, *value);
    if (ec != std::errc()) return Fail("integer out of range");
    (void)ptr;
    return true;
  }

  bool AtEnd() {
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing bytes after document");
    return true;
  }

  bool Fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at byte " + std::to_string(pos_);
    }
    return false;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::string error_;
};

BodyParse Malformed(const std::string& why) {
  BodyParse parse;
  parse.error = why;
  return parse;
}

/// Shared envelope prefix of every response document.
void WriteEnvelope(obs::JsonWriter& json, const serve::Response& response) {
  json.Key("status").String(serve::ToString(response.code));
  json.Key("tier").Uint(response.tier);
  json.Key("probe").Bool(response.probe);
  json.Key("generation").Uint(response.generation);
  json.Key("trace_id").String(response.trace_id);
}

}  // namespace

BodyParse ParsePredictBody(const std::string& body) {
  JsonCursor cursor(body);
  bool have_user = false;
  bool have_item = false;
  std::uint64_t user = 0;
  std::uint64_t item = 0;
  std::uint64_t rung_floor = 0;

  if (!cursor.Expect('{')) return Malformed(cursor.error());
  if (!cursor.Peek('}')) {
    do {
      std::string key;
      if (!cursor.ParseKey(&key) || !cursor.Expect(':')) {
        return Malformed(cursor.error());
      }
      std::uint64_t value = 0;
      if (!cursor.ParseUint(&value)) return Malformed(cursor.error());
      if (key == "user") {
        user = value;
        have_user = true;
      } else if (key == "item") {
        item = value;
        have_item = true;
      } else if (key == "rung_floor") {
        rung_floor = value;
      } else {
        return Malformed("unknown field \"" + key + "\"");
      }
    } while (cursor.Peek(',') && cursor.Expect(','));
  }
  if (!cursor.Expect('}') || !cursor.AtEnd()) return Malformed(cursor.error());
  if (!have_user) return Malformed("missing required field \"user\"");
  if (!have_item) return Malformed("missing required field \"item\"");

  BodyParse parse;
  parse.ok = true;
  parse.request = serve::Request::Predict(static_cast<matrix::UserId>(user),
                                          static_cast<matrix::ItemId>(item));
  parse.request.rung_floor = static_cast<std::size_t>(rung_floor);
  return parse;
}

BodyParse ParseBatchBody(const std::string& body, std::size_t max_batch) {
  JsonCursor cursor(body);
  std::vector<std::pair<matrix::UserId, matrix::ItemId>> queries;
  bool have_queries = false;
  std::uint64_t rung_floor = 0;

  if (!cursor.Expect('{')) return Malformed(cursor.error());
  if (!cursor.Peek('}')) {
    do {
      std::string key;
      if (!cursor.ParseKey(&key) || !cursor.Expect(':')) {
        return Malformed(cursor.error());
      }
      if (key == "queries") {
        have_queries = true;
        if (!cursor.Expect('[')) return Malformed(cursor.error());
        if (!cursor.Peek(']')) {
          do {
            std::uint64_t user = 0;
            std::uint64_t item = 0;
            if (!cursor.Expect('[') || !cursor.ParseUint(&user) ||
                !cursor.Expect(',') || !cursor.ParseUint(&item) ||
                !cursor.Expect(']')) {
              return Malformed(cursor.error());
            }
            queries.emplace_back(static_cast<matrix::UserId>(user),
                                 static_cast<matrix::ItemId>(item));
            if (queries.size() > max_batch) {
              return Malformed("batch exceeds the limit of " +
                               std::to_string(max_batch) + " queries");
            }
          } while (cursor.Peek(',') && cursor.Expect(','));
        }
        if (!cursor.Expect(']')) return Malformed(cursor.error());
      } else if (key == "rung_floor") {
        if (!cursor.ParseUint(&rung_floor)) return Malformed(cursor.error());
      } else {
        return Malformed("unknown field \"" + key + "\"");
      }
    } while (cursor.Peek(',') && cursor.Expect(','));
  }
  if (!cursor.Expect('}') || !cursor.AtEnd()) return Malformed(cursor.error());
  if (!have_queries) return Malformed("missing required field \"queries\"");
  if (queries.empty()) return Malformed("\"queries\" must not be empty");

  BodyParse parse;
  parse.ok = true;
  parse.request = serve::Request::PredictBatch(std::move(queries));
  parse.request.rung_floor = static_cast<std::size_t>(rung_floor);
  return parse;
}

BodyParse ParseRateBody(const std::string& body) {
  JsonCursor cursor(body);
  bool have_user = false;
  bool have_item = false;
  bool have_rating = false;
  std::uint64_t user = 0;
  std::uint64_t item = 0;
  std::uint64_t rating = 0;
  std::uint64_t timestamp = 0;

  if (!cursor.Expect('{')) return Malformed(cursor.error());
  if (!cursor.Peek('}')) {
    do {
      std::string key;
      if (!cursor.ParseKey(&key) || !cursor.Expect(':')) {
        return Malformed(cursor.error());
      }
      std::uint64_t value = 0;
      if (!cursor.ParseUint(&value)) return Malformed(cursor.error());
      if (key == "user") {
        user = value;
        have_user = true;
      } else if (key == "item") {
        item = value;
        have_item = true;
      } else if (key == "rating") {
        rating = value;
        have_rating = true;
      } else if (key == "timestamp") {
        timestamp = value;
      } else {
        return Malformed("unknown field \"" + key + "\"");
      }
    } while (cursor.Peek(',') && cursor.Expect(','));
  }
  if (!cursor.Expect('}') || !cursor.AtEnd()) return Malformed(cursor.error());
  if (!have_user) return Malformed("missing required field \"user\"");
  if (!have_item) return Malformed("missing required field \"item\"");
  if (!have_rating) return Malformed("missing required field \"rating\"");
  if (rating < 1 || rating > 5) {
    return Malformed("\"rating\" must be in [1, 5]");
  }

  BodyParse parse;
  parse.ok = true;
  parse.request = serve::Request::Rate(
      static_cast<matrix::UserId>(user), static_cast<matrix::ItemId>(item),
      static_cast<matrix::Rating>(rating),
      static_cast<matrix::Timestamp>(timestamp));
  return parse;
}

std::string RenderResponseJson(serve::Request::Kind kind,
                               const serve::Response& response) {
  obs::JsonWriter json;
  json.BeginObject();
  WriteEnvelope(json, response);
  if (response.ok()) {
    if (kind == serve::Request::Kind::kRate) {
      json.Key("lsn").Uint(response.lsn);
      json.Key("deduplicated").Bool(response.deduplicated);
    } else if (kind == serve::Request::Kind::kTopN) {
      json.Key("ranked").BeginArray();
      for (const serve::RankedItem& entry : response.ranked) {
        json.BeginObject();
        json.Key("item").Uint(entry.item);
        json.Key("score").Double(entry.score);
        json.EndObject();
      }
      json.EndArray();
    } else {
      json.Key("predictions").BeginArray();
      for (const serve::Prediction& prediction : response.predictions) {
        json.BeginObject();
        json.Key("user").Uint(prediction.user);
        json.Key("item").Uint(prediction.item);
        json.Key("value").Double(prediction.value);
        json.Key("rung").String(robust::ToString(prediction.rung));
        json.Key("deadline_overrun").Bool(prediction.deadline_overrun);
        json.EndObject();
      }
      json.EndArray();
    }
  } else {
    json.Key("message").String(response.message);
  }
  json.EndObject();
  return json.str();
}

std::string RenderErrorJson(serve::StatusCode code,
                            const std::string& message,
                            const std::string& trace_id) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("status").String(serve::ToString(code));
  json.Key("trace_id").String(trace_id);
  json.Key("message").String(message);
  json.EndObject();
  return json.str();
}

}  // namespace cfsf::net
