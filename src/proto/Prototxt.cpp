//===- proto/Prototxt.cpp --------------------------------------------------===//

#include "src/proto/Prototxt.h"

#include "src/support/StringUtils.h"

#include <cctype>

using namespace wootz;

//===----------------------------------------------------------------------===//
// PrototxtMessage / PrototxtValue
//===----------------------------------------------------------------------===//

void PrototxtMessage::add(const std::string &FieldName,
                          PrototxtValue Value) {
  auto [It, Inserted] = Fields.try_emplace(FieldName);
  if (Inserted)
    Order.push_back(FieldName);
  It->second.push_back(std::move(Value));
}

const std::vector<PrototxtValue> &
PrototxtMessage::values(const std::string &FieldName) const {
  static const std::vector<PrototxtValue> Empty;
  auto It = Fields.find(FieldName);
  return It == Fields.end() ? Empty : It->second;
}

bool PrototxtMessage::has(const std::string &FieldName) const {
  return Fields.count(FieldName) != 0;
}

Result<std::string>
PrototxtMessage::scalarOr(const std::string &FieldName,
                          const std::string &Default) const {
  const std::vector<PrototxtValue> &Values = values(FieldName);
  if (Values.empty())
    return Default;
  if (Values.size() != 1)
    return Error::failure("field '" + FieldName +
                          "' occurs " + std::to_string(Values.size()) +
                          " times, expected a single value");
  if (!Values[0].isScalar())
    return Error::failure("field '" + FieldName +
                          "' is a message, expected a scalar");
  return Values[0].text();
}

Result<long long> PrototxtMessage::intOr(const std::string &FieldName,
                                         long long Default) const {
  if (!has(FieldName))
    return Default;
  Result<std::string> Text = scalarOr(FieldName, "");
  if (!Text)
    return Text.takeError();
  Result<long long> Parsed = parseInteger(*Text);
  if (!Parsed)
    return Error::failure("field '" + FieldName + "': " +
                          Parsed.message());
  return *Parsed;
}

Result<double> PrototxtMessage::doubleOr(const std::string &FieldName,
                                         double Default) const {
  if (!has(FieldName))
    return Default;
  Result<std::string> Text = scalarOr(FieldName, "");
  if (!Text)
    return Text.takeError();
  Result<double> Parsed = parseDouble(*Text);
  if (!Parsed)
    return Error::failure("field '" + FieldName + "': " +
                          Parsed.message());
  return *Parsed;
}

Result<bool> PrototxtMessage::boolOr(const std::string &FieldName,
                                     bool Default) const {
  if (!has(FieldName))
    return Default;
  Result<std::string> Text = scalarOr(FieldName, "");
  if (!Text)
    return Text.takeError();
  if (*Text == "true" || *Text == "1")
    return true;
  if (*Text == "false" || *Text == "0")
    return false;
  return Error::failure("field '" + FieldName +
                        "' must be true or false, found '" + *Text + "'");
}

PrototxtValue PrototxtValue::scalar(std::string Text) {
  PrototxtValue V;
  V.Text = std::move(Text);
  return V;
}

PrototxtValue PrototxtValue::message(PrototxtMessage Msg) {
  PrototxtValue V;
  V.Msg = std::make_shared<PrototxtMessage>(std::move(Msg));
  return V;
}

const std::string &PrototxtValue::text() const {
  assert(isScalar() && "text() on a message value");
  return Text;
}

const PrototxtMessage &PrototxtValue::message() const {
  assert(!isScalar() && "message() on a scalar value");
  return *Msg;
}

//===----------------------------------------------------------------------===//
// Lexer and parser
//===----------------------------------------------------------------------===//

namespace {

enum class TokenKind { Ident, String, Number, Colon, LBrace, RBrace, End };

struct Token {
  TokenKind Kind;
  std::string Text;
  int Line;
};

/// Hand-rolled lexer over the Prototxt source.
class Lexer {
public:
  explicit Lexer(const std::string &Source) : Source(Source) {}

  /// Scans the next token; reports unterminated strings / bad characters.
  Result<Token> next() {
    skipTrivia();
    if (Position >= Source.size())
      return Token{TokenKind::End, "", Line};
    const char First = Source[Position];
    if (First == ':') {
      ++Position;
      return Token{TokenKind::Colon, ":", Line};
    }
    if (First == '{') {
      ++Position;
      return Token{TokenKind::LBrace, "{", Line};
    }
    if (First == '}') {
      ++Position;
      return Token{TokenKind::RBrace, "}", Line};
    }
    if (First == '"' || First == '\'')
      return lexString(First);
    if (std::isalpha(static_cast<unsigned char>(First)) || First == '_')
      return lexIdent();
    if (std::isdigit(static_cast<unsigned char>(First)) || First == '-' ||
        First == '+' || First == '.')
      return lexNumber();
    return Error::failure("line " + std::to_string(Line) +
                          ": unexpected character '" +
                          std::string(1, First) + "'");
  }

private:
  void skipTrivia() {
    while (Position < Source.size()) {
      const char C = Source[Position];
      if (C == '#') {
        while (Position < Source.size() && Source[Position] != '\n')
          ++Position;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(C)))
        return;
      if (C == '\n')
        ++Line;
      ++Position;
    }
  }

  Result<Token> lexString(char Quote) {
    const int StartLine = Line;
    ++Position; // Opening quote.
    std::string Text;
    while (Position < Source.size() && Source[Position] != Quote) {
      const char C = Source[Position];
      if (C == '\n')
        return Error::failure("line " + std::to_string(StartLine) +
                              ": unterminated string literal");
      if (C == '\\') {
        // A trailing backslash leaves the literal unterminated; any other
        // backslash introduces one of the standard escapes.
        if (Position + 1 >= Source.size())
          return Error::failure("line " + std::to_string(StartLine) +
                                ": unterminated string literal");
        const char Escaped = Source[Position + 1];
        switch (Escaped) {
        case '"':
        case '\'':
        case '\\':
          Text += Escaped;
          break;
        case 'n':
          Text += '\n';
          break;
        case 't':
          Text += '\t';
          break;
        default:
          return Error::failure("line " + std::to_string(StartLine) +
                                ": unsupported escape '\\" +
                                std::string(1, Escaped) +
                                "' in string literal");
        }
        Position += 2;
        continue;
      }
      Text += C;
      ++Position;
    }
    if (Position >= Source.size())
      return Error::failure("line " + std::to_string(StartLine) +
                            ": unterminated string literal");
    ++Position; // Closing quote.
    return Token{TokenKind::String, Text, StartLine};
  }

  Result<Token> lexIdent() {
    std::string Text;
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '_'))
      Text += Source[Position++];
    return Token{TokenKind::Ident, Text, Line};
  }

  Result<Token> lexNumber() {
    std::string Text;
    while (Position < Source.size() &&
           (std::isalnum(static_cast<unsigned char>(Source[Position])) ||
            Source[Position] == '-' || Source[Position] == '+' ||
            Source[Position] == '.'))
      Text += Source[Position++];
    return Token{TokenKind::Number, Text, Line};
  }

  const std::string &Source;
  size_t Position = 0;
  int Line = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
public:
  explicit Parser(const std::string &Source) : Tokens(Source) {}

  Result<PrototxtMessage> parseTopLevel() {
    if (Error E = advance())
      return E;
    Result<PrototxtMessage> Msg = parseMessage(/*Nested=*/false);
    if (!Msg)
      return Msg;
    if (Current.Kind != TokenKind::End)
      return Error::failure("line " + std::to_string(Current.Line) +
                            ": expected end of input, found '" +
                            Current.Text + "'");
    return Msg;
  }

private:
  Error advance() {
    Result<Token> Next = Tokens.next();
    if (!Next)
      return Next.takeError();
    Current = *Next;
    return Error::success();
  }

  Result<PrototxtMessage> parseMessage(bool Nested) {
    PrototxtMessage Msg;
    for (;;) {
      if (Current.Kind == TokenKind::End) {
        if (Nested)
          return Error::failure("unexpected end of input inside a message");
        return Msg;
      }
      if (Current.Kind == TokenKind::RBrace) {
        if (!Nested)
          return Error::failure("line " + std::to_string(Current.Line) +
                                ": unmatched '}'");
        return Msg;
      }
      if (Current.Kind != TokenKind::Ident)
        return Error::failure("line " + std::to_string(Current.Line) +
                              ": expected a field name, found '" +
                              Current.Text + "'");
      const std::string FieldName = Current.Text;
      if (Error E = advance())
        return E;

      // Either "name { ... }", "name: { ... }", or "name: scalar".
      bool SawColon = false;
      if (Current.Kind == TokenKind::Colon) {
        SawColon = true;
        if (Error E = advance())
          return E;
      }
      if (Current.Kind == TokenKind::LBrace) {
        if (Error E = advance())
          return E;
        Result<PrototxtMessage> Nested = parseMessage(/*Nested=*/true);
        if (!Nested)
          return Nested;
        assert(Current.Kind == TokenKind::RBrace && "parser invariant");
        if (Error E = advance())
          return E;
        Msg.add(FieldName, PrototxtValue::message(Nested.take()));
        continue;
      }
      if (!SawColon)
        return Error::failure("line " + std::to_string(Current.Line) +
                              ": expected ':' or '{' after field '" +
                              FieldName + "'");
      if (Current.Kind != TokenKind::Ident &&
          Current.Kind != TokenKind::String &&
          Current.Kind != TokenKind::Number)
        return Error::failure("line " + std::to_string(Current.Line) +
                              ": expected a value for field '" + FieldName +
                              "'");
      Msg.add(FieldName, PrototxtValue::scalar(Current.Text));
      if (Error E = advance())
        return E;
    }
  }

  Lexer Tokens;
  Token Current{TokenKind::End, "", 0};
};

} // namespace

Result<PrototxtMessage> wootz::parsePrototxt(const std::string &Source) {
  Parser P(Source);
  return P.parseTopLevel();
}

std::string wootz::prototxtEscape(const std::string &Text) {
  std::string Escaped;
  Escaped.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"':
      Escaped += "\\\"";
      break;
    case '\\':
      Escaped += "\\\\";
      break;
    case '\n':
      Escaped += "\\n";
      break;
    case '\t':
      Escaped += "\\t";
      break;
    default:
      Escaped += C;
    }
  }
  return Escaped;
}
