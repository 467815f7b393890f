#include "mql/parser.h"

#include <cctype>
#include <utility>

#include "mql/lexer.h"
#include "util/string_util.h"

namespace mad {
namespace mql {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseOne() {
    MAD_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
    if (Peek().kind == TokenKind::kSemicolon) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after statement");
    }
    return stmt;
  }

  Result<std::vector<Statement>> ParseAll() {
    std::vector<Statement> statements;
    while (Peek().kind != TokenKind::kEnd) {
      MAD_ASSIGN_OR_RETURN(Statement stmt, ParseStatementInner());
      statements.push_back(std::move(stmt));
      if (Peek().kind == TokenKind::kSemicolon) {
        Advance();
      } else if (Peek().kind != TokenKind::kEnd) {
        return Error("expected ';' between statements");
      }
    }
    return statements;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t idx = pos_ + ahead;
    if (idx >= tokens_.size()) idx = tokens_.size() - 1;
    return tokens_[idx];
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind != kind) return false;
    Advance();
    return true;
  }
  Status Expect(TokenKind kind) {
    if (Accept(kind)) return Status::OK();
    return Error(std::string("expected ") + TokenKindName(kind) + ", found " +
                 TokenKindName(Peek().kind));
  }
  Status Error(const std::string& message) const {
    const SourceSpan& at = Peek().span;
    return Status::ParseError(message + " (line " + std::to_string(at.line) +
                              ", column " + std::to_string(at.column) + ")");
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    MAD_ASSIGN_OR_RETURN(Token tok, ExpectIdentifierToken(what));
    return std::move(tok.text);
  }

  /// Like ExpectIdentifier but keeps the token, for callers that record
  /// its span into the AST.
  Result<Token> ExpectIdentifierToken(const char* what) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error(std::string("expected ") + what + ", found " +
                   TokenKindName(Peek().kind));
    }
    return Advance();
  }

  /// Index of the next token; pairs with SpanSince to cover a parsed range.
  size_t Mark() const { return pos_; }

  /// The span from the token at `mark` through the last consumed token.
  SourceSpan SpanSince(size_t mark) const {
    if (mark >= tokens_.size()) mark = tokens_.size() - 1;
    SourceSpan span = tokens_[mark].span;
    const Token& last = tokens_[pos_ > mark ? pos_ - 1 : mark];
    size_t end = last.span.offset + last.span.length;
    if (end > span.offset) span.length = end - span.offset;
    return span;
  }

  /// Records the source range of an expression node (side map: expr::Expr
  /// is shared with the algebra layer and carries no spans itself).
  void NoteExpr(const expr::ExprPtr& e, size_t mark) {
    if (e != nullptr) expr_spans_[e.get()] = SpanSince(mark);
  }

  ExprSpanMap TakeExprSpans() { return std::exchange(expr_spans_, {}); }

  Result<Statement> ParseStatementInner() {
    switch (Peek().kind) {
      case TokenKind::kSelect:
        return ParseSelect();
      case TokenKind::kCreate:
        return ParseCreate();
      case TokenKind::kInsert:
        return ParseInsert();
      case TokenKind::kDelete:
        return ParseDelete();
      case TokenKind::kUpdate:
        return ParseUpdate();
      case TokenKind::kExplain: {
        Advance();
        ExplainStatement stmt;
        stmt.analyze = Accept(TokenKind::kAnalyze);
        MAD_ASSIGN_OR_RETURN(Statement inner, ParseSelect());
        stmt.select = std::get<SelectStatement>(std::move(inner));
        return Statement(std::move(stmt));
      }
      case TokenKind::kShow:
        Advance();
        if (Accept(TokenKind::kTransactions)) {
          return Statement(ShowTransactionsStatement{});
        }
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kMetrics));
        return Statement(ShowMetricsStatement{});
      case TokenKind::kSet:
        // Statement-initial SET is a session option; SET also appears
        // mid-statement in UPDATE ... SET, which ParseUpdate consumes.
        return ParseSetOption();
      case TokenKind::kOpen:
        return ParseOpen();
      case TokenKind::kCheckpoint:
        Advance();
        return Statement(CheckpointStatement{});
      case TokenKind::kBegin:
        Advance();
        Accept(TokenKind::kTransaction);  // optional noise word
        return Statement(BeginStatement{});
      case TokenKind::kCommit:
        Advance();
        Accept(TokenKind::kTransaction);
        return Statement(CommitStatement{});
      case TokenKind::kRollback:
        Advance();
        Accept(TokenKind::kTransaction);
        return Statement(RollbackStatement{});
      case TokenKind::kCheck: {
        Advance();
        if (Peek().kind == TokenKind::kCheck) {
          return Error("CHECK does not nest");
        }
        MAD_ASSIGN_OR_RETURN(Statement inner, ParseStatementInner());
        CheckStatement stmt;
        stmt.inner = std::make_shared<StatementBox>();
        stmt.inner->value = std::move(inner);
        return Statement(std::move(stmt));
      }
      default:
        return Error(
            "expected SELECT, CREATE, INSERT, UPDATE, DELETE, SET, OPEN, "
            "CHECKPOINT, SHOW, EXPLAIN, CHECK, BEGIN, COMMIT, or ROLLBACK");
    }
  }

  // SET option [=] (integer | ON | OFF). Option names may span several
  // identifiers ("SET PIN SNAPSHOT ON"): every identifier that is not the
  // ON/OFF value extends the name — unambiguous because option values are
  // only integers, ON, or OFF.
  Result<Statement> ParseSetOption() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kSet));
    SetOptionStatement stmt;
    MAD_ASSIGN_OR_RETURN(Token option, ExpectIdentifierToken("option name"));
    stmt.option = std::move(option.text);
    stmt.option_span = option.span;
    while (Peek().kind == TokenKind::kIdentifier &&
           !EqualsIgnoreCase(Peek().text, "on") &&
           !EqualsIgnoreCase(Peek().text, "off")) {
      Token word = Advance();
      stmt.option += " " + word.text;
      stmt.option_span.length =
          word.span.offset + word.span.length - stmt.option_span.offset;
    }
    Accept(TokenKind::kEq);  // optional '='
    if (Peek().kind == TokenKind::kIdentifier &&
        (EqualsIgnoreCase(Peek().text, "on") ||
         EqualsIgnoreCase(Peek().text, "off"))) {
      stmt.value_span = Peek().span;
      stmt.value = EqualsIgnoreCase(Advance().text, "on") ? 1 : 0;
      return Statement(std::move(stmt));
    }
    if (Peek().kind != TokenKind::kInteger) {
      return Error("expected non-negative integer, ON, or OFF option value");
    }
    stmt.value_span = Peek().span;
    stmt.value = Advance().int_value;
    return Statement(std::move(stmt));
  }

  // OPEN '<directory>'
  Result<Statement> ParseOpen() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kOpen));
    if (Peek().kind != TokenKind::kString) {
      return Error("expected a quoted directory path after OPEN");
    }
    OpenStatement stmt;
    stmt.directory = Advance().text;
    return Statement(std::move(stmt));
  }

  // SELECT (ALL | items) FROM from [WHERE expr]
  Result<Statement> ParseSelect() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kSelect));
    SelectStatement stmt;
    if (Accept(TokenKind::kAll)) {
      stmt.select_all = true;
    } else {
      stmt.select_all = false;
      do {
        ProjectionItem item;
        MAD_ASSIGN_OR_RETURN(Token label,
                             ExpectIdentifierToken("projection label"));
        item.label = std::move(label.text);
        item.label_span = label.span;
        if (Accept(TokenKind::kDot)) {
          if (Accept(TokenKind::kStar)) {
            item.attribute = std::nullopt;  // label.* == label
          } else {
            MAD_ASSIGN_OR_RETURN(Token attr,
                                 ExpectIdentifierToken("attribute name"));
            item.attribute = std::move(attr.text);
            item.attr_span = attr.span;
          }
        }
        stmt.items.push_back(std::move(item));
      } while (Accept(TokenKind::kComma));
    }
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kFrom));
    MAD_ASSIGN_OR_RETURN(stmt.from, ParseFrom());
    if (Accept(TokenKind::kWhere)) {
      MAD_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    stmt.expr_spans = TakeExprSpans();
    return Statement(std::move(stmt));
  }

  // from := IDENT '(' structure ')' | structure
  Result<FromClause> ParseFrom() {
    FromClause from;
    // Named form: IDENT '(' ... — but `a-(b,c)` also puts '(' after a
    // *connector*, never directly after the first identifier, so the
    // two-token lookahead is unambiguous.
    if (Peek().kind == TokenKind::kIdentifier &&
        Peek(1).kind == TokenKind::kLParen) {
      from.name_span = Peek().span;
      from.molecule_name = Advance().text;
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MAD_ASSIGN_OR_RETURN(from.structure, ParseStructure());
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return from;
    }
    MAD_ASSIGN_OR_RETURN(from.structure, ParseStructure());
    return from;
  }

  // structure := IDENT tail ; tail handles chains and parenthesised branch
  // lists. `A-B-C` chains (B continues the walk), `A-(B-C,D)` branches,
  // and `A-[l*]-B-...` expands every closure member of a recursive step by
  // the remaining structure (implicitly rooted at A).
  Result<std::unique_ptr<StructureNode>> ParseStructure() {
    auto node = std::make_unique<StructureNode>();
    MAD_ASSIGN_OR_RETURN(Token atom, ExpectIdentifierToken("atom type"));
    node->atom = std::move(atom.text);
    node->span = atom.span;
    MAD_RETURN_IF_ERROR(ParseTail(node.get()));
    return node;
  }

  Status ParseTail(StructureNode* start) {
    StructureNode* current = start;
    while (Peek().kind == TokenKind::kDash) {
      SourceSpan connector_span = Peek().span;
      Advance();  // '-'
      StructureNode::Branch branch;
      branch.link_span = connector_span;
      if (Peek().kind == TokenKind::kLinkRef) {
        branch.link_span = Peek().span;
        std::string body = Advance().text;
        // A '*' may carry a depth bound: [composition*3]. Digits belong to
        // the link name unless a '*' precedes them.
        size_t digits_begin = body.size();
        while (digits_begin > 0 &&
               std::isdigit(static_cast<unsigned char>(body[digits_begin - 1]))) {
          --digits_begin;
        }
        if (digits_begin < body.size() && digits_begin > 0 &&
            body[digits_begin - 1] == '*') {
          branch.recursive = true;
          branch.recursive_depth = std::stoi(body.substr(digits_begin));
          body.resize(digits_begin - 1);
        }
        // Trailing '*' and '~' flags, any order.
        bool changed = true;
        while (changed && !body.empty()) {
          changed = false;
          if (body.back() == '*') {
            branch.recursive = true;
            body.pop_back();
            changed = true;
          } else if (body.back() == '~') {
            branch.reverse = true;
            body.pop_back();
            changed = true;
          }
        }
        body = std::string(StripWhitespace(body));
        if (body.empty()) return Error("empty link name in link reference");
        branch.link = std::move(body);
        if (branch.recursive) {
          // A recursive step ends the chain; an optional '-' tail becomes
          // the per-member expansion structure, implicitly rooted at the
          // recursion's atom type.
          if (Accept(TokenKind::kDash)) {
            auto expansion = std::make_unique<StructureNode>();
            expansion->atom = current->atom;
            expansion->span = current->span;
            StructureNode::Branch inner;
            inner.link_span = connector_span;
            if (Peek().kind == TokenKind::kLinkRef) {
              inner.link_span = Peek().span;
              std::string inner_body = Advance().text;
              inner_body = std::string(StripWhitespace(inner_body));
              if (inner_body.empty() || inner_body.back() == '*') {
                return Error("nested recursion is not supported");
              }
              if (!inner_body.empty() && inner_body.back() == '~') {
                inner.reverse = true;
                inner_body.pop_back();
              }
              inner.link = std::move(inner_body);
              MAD_RETURN_IF_ERROR(Expect(TokenKind::kDash));
            }
            if (Accept(TokenKind::kLParen)) {
              do {
                StructureNode::Branch element;
                element.link = inner.link;
                element.reverse = inner.reverse;
                element.link_span = inner.link_span;
                MAD_ASSIGN_OR_RETURN(element.child, ParseStructure());
                expansion->branches.push_back(std::move(element));
              } while (Accept(TokenKind::kComma));
              MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
            } else {
              MAD_ASSIGN_OR_RETURN(inner.child, ParseStructure());
              expansion->branches.push_back(std::move(inner));
            }
            branch.child = std::move(expansion);
          }
          current->branches.push_back(std::move(branch));
          return Status::OK();
        }
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kDash));
      }
      if (Accept(TokenKind::kLParen)) {
        // Branch list: each element is a full sub-structure; the chain does
        // not continue after ')'.
        std::optional<std::string> shared_link = branch.link;
        bool shared_reverse = branch.reverse;
        SourceSpan shared_span = branch.link_span;
        do {
          StructureNode::Branch element;
          element.link = shared_link;
          element.reverse = shared_reverse;
          element.link_span = shared_span;
          MAD_ASSIGN_OR_RETURN(element.child, ParseStructure());
          current->branches.push_back(std::move(element));
        } while (Accept(TokenKind::kComma));
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        break;
      }
      MAD_ASSIGN_OR_RETURN(Token next_atom,
                           ExpectIdentifierToken("atom type after '-'"));
      auto child = std::make_unique<StructureNode>();
      child->atom = std::move(next_atom.text);
      child->span = next_atom.span;
      StructureNode* next = child.get();
      branch.child = std::move(child);
      current->branches.push_back(std::move(branch));
      current = next;  // the chain continues from the new node
    }
    return Status::OK();
  }

  // ---- DDL / DML ------------------------------------------------------

  Result<Statement> ParseCreate() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kCreate));
    if (Accept(TokenKind::kAtom)) {
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kType));
      CreateAtomTypeStatement stmt;
      MAD_ASSIGN_OR_RETURN(Token name,
                           ExpectIdentifierToken("atom type name"));
      stmt.name = std::move(name.text);
      stmt.name_span = name.span;
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      do {
        MAD_ASSIGN_OR_RETURN(Token attr,
                             ExpectIdentifierToken("attribute name"));
        MAD_ASSIGN_OR_RETURN(std::string type_name,
                             ExpectIdentifier("data type"));
        DataType type = DataTypeFromName(type_name);
        if (type == DataType::kNull) {
          return Error("unknown data type '" + type_name + "'");
        }
        stmt.attributes.emplace_back(std::move(attr.text), type);
        stmt.attribute_spans.push_back(attr.span);
      } while (Accept(TokenKind::kComma));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return Statement(std::move(stmt));
    }
    if (Accept(TokenKind::kLink)) {
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kType));
      CreateLinkTypeStatement stmt;
      MAD_ASSIGN_OR_RETURN(Token name,
                           ExpectIdentifierToken("link type name"));
      stmt.name = std::move(name.text);
      stmt.name_span = name.span;
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MAD_ASSIGN_OR_RETURN(Token first, ExpectIdentifierToken("atom type"));
      stmt.first = std::move(first.text);
      stmt.first_span = first.span;
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kComma));
      MAD_ASSIGN_OR_RETURN(Token second, ExpectIdentifierToken("atom type"));
      stmt.second = std::move(second.text);
      stmt.second_span = second.span;
      if (Accept(TokenKind::kComma)) {
        // Extended link-type definition: cardinality restriction.
        if (Peek().kind != TokenKind::kString) {
          return Error("expected cardinality string like '1:n'");
        }
        std::string text = Advance().text;
        if (!ParseLinkCardinality(text, &stmt.cardinality)) {
          return Error("bad cardinality '" + text +
                       "' (use '1:1', '1:n', 'n:1', or 'n:m')");
        }
      }
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return Statement(std::move(stmt));
    }
    return Error("expected ATOM TYPE or LINK TYPE after CREATE");
  }

  Result<Statement> ParseInsert() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kInsert));
    if (Accept(TokenKind::kInto)) {
      InsertAtomStatement stmt;
      MAD_ASSIGN_OR_RETURN(Token type, ExpectIdentifierToken("atom type"));
      stmt.atom_type = std::move(type.text);
      stmt.type_span = type.span;
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kValues));
      do {
        stmt.row_spans.push_back(Peek().span);
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        std::vector<Value> row;
        std::vector<SourceSpan> row_value_spans;
        if (Peek().kind != TokenKind::kRParen) {
          do {
            size_t mark = Mark();
            MAD_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
            row.push_back(std::move(v));
            row_value_spans.push_back(SpanSince(mark));
          } while (Accept(TokenKind::kComma));
        }
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        stmt.rows.push_back(std::move(row));
        stmt.value_spans.push_back(std::move(row_value_spans));
      } while (Accept(TokenKind::kComma));
      return Statement(std::move(stmt));
    }
    if (Accept(TokenKind::kLink)) {
      InsertLinkStatement stmt;
      if (Peek().kind == TokenKind::kLinkRef) {
        stmt.link_span = Peek().span;
        stmt.link_type = Advance().text;
      } else {
        // A bare name may be hyphenated, as the geo link types are
        // (state-area): identifiers joined by '-'.
        const size_t mark = Mark();
        MAD_ASSIGN_OR_RETURN(Token link, ExpectIdentifierToken("link type"));
        stmt.link_type = std::move(link.text);
        while (Peek().kind == TokenKind::kDash &&
               Peek(1).kind == TokenKind::kIdentifier) {
          Advance();
          stmt.link_type += '-';
          stmt.link_type += Advance().text;
        }
        stmt.link_span = SpanSince(mark);
      }
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kFrom));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MAD_ASSIGN_OR_RETURN(stmt.first_predicate, ParseExpr());
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kTo));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MAD_ASSIGN_OR_RETURN(stmt.second_predicate, ParseExpr());
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      stmt.expr_spans = TakeExprSpans();
      return Statement(std::move(stmt));
    }
    return Error("expected INTO or LINK after INSERT");
  }

  Result<Statement> ParseDelete() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kDelete));
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kFrom));
    DeleteStatement stmt;
    MAD_ASSIGN_OR_RETURN(Token type, ExpectIdentifierToken("atom type"));
    stmt.atom_type = std::move(type.text);
    stmt.type_span = type.span;
    if (Accept(TokenKind::kWhere)) {
      MAD_ASSIGN_OR_RETURN(stmt.predicate, ParseExpr());
    }
    stmt.expr_spans = TakeExprSpans();
    return Statement(std::move(stmt));
  }

  Result<Statement> ParseUpdate() {
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kUpdate));
    UpdateStatement stmt;
    MAD_ASSIGN_OR_RETURN(Token type, ExpectIdentifierToken("atom type"));
    stmt.atom_type = std::move(type.text);
    stmt.type_span = type.span;
    MAD_RETURN_IF_ERROR(Expect(TokenKind::kSet));
    do {
      MAD_ASSIGN_OR_RETURN(Token attr,
                           ExpectIdentifierToken("attribute name"));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kEq));
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr value, ParseAdditive());
      stmt.assignments.emplace_back(std::move(attr.text), std::move(value));
      stmt.assignment_spans.push_back(attr.span);
    } while (Accept(TokenKind::kComma));
    if (Accept(TokenKind::kWhere)) {
      MAD_ASSIGN_OR_RETURN(stmt.predicate, ParseExpr());
    }
    stmt.expr_spans = TakeExprSpans();
    return Statement(std::move(stmt));
  }

  // ---- Expressions (WHERE clauses) --------------------------------------

  Result<Value> ParseLiteralValue() {
    bool negative = false;
    if (Accept(TokenKind::kDash)) negative = true;
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kString:
        if (negative) return Error("cannot negate a string literal");
        Advance();
        return Value(t.text);
      case TokenKind::kInteger:
        Advance();
        return Value(negative ? -t.int_value : t.int_value);
      case TokenKind::kDouble:
        Advance();
        return Value(negative ? -t.double_value : t.double_value);
      case TokenKind::kTrue:
        Advance();
        return Value(true);
      case TokenKind::kFalse:
        Advance();
        return Value(false);
      case TokenKind::kNull:
        Advance();
        return Value();
      default:
        return Error("expected literal value");
    }
  }

  Result<expr::ExprPtr> ParseExpr() { return ParseOr(); }

  Result<expr::ExprPtr> ParseOr() {
    size_t mark = Mark();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs, ParseAnd());
    while (Accept(TokenKind::kOr)) {
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseAnd());
      lhs = expr::Or(std::move(lhs), std::move(rhs));
      NoteExpr(lhs, mark);
    }
    return lhs;
  }

  Result<expr::ExprPtr> ParseAnd() {
    size_t mark = Mark();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs, ParseNot());
    while (Accept(TokenKind::kAnd)) {
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseNot());
      lhs = expr::And(std::move(lhs), std::move(rhs));
      NoteExpr(lhs, mark);
    }
    return lhs;
  }

  Result<expr::ExprPtr> ParseNot() {
    size_t mark = Mark();
    if (Accept(TokenKind::kNot)) {
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr operand, ParseNot());
      expr::ExprPtr e = expr::Not(std::move(operand));
      NoteExpr(e, mark);
      return e;
    }
    if (Accept(TokenKind::kForAll)) {
      MAD_ASSIGN_OR_RETURN(std::string label,
                           ExpectIdentifier("node label after FORALL"));
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr inner, ParseExpr());
      MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      expr::ExprPtr e = expr::ForAll(std::move(label), std::move(inner));
      NoteExpr(e, mark);
      return e;
    }
    return ParseComparison();
  }

  Result<expr::ExprPtr> ParseComparison() {
    size_t mark = Mark();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs, ParseAdditive());
    expr::CompareOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = expr::CompareOp::kEq;
        break;
      case TokenKind::kNe:
        op = expr::CompareOp::kNe;
        break;
      case TokenKind::kLt:
        op = expr::CompareOp::kLt;
        break;
      case TokenKind::kLe:
        op = expr::CompareOp::kLe;
        break;
      case TokenKind::kGt:
        op = expr::CompareOp::kGt;
        break;
      case TokenKind::kGe:
        op = expr::CompareOp::kGe;
        break;
      default:
        return lhs;
    }
    Advance();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseAdditive());
    expr::ExprPtr e =
        expr::Expr::MakeCompare(op, std::move(lhs), std::move(rhs));
    NoteExpr(e, mark);
    return e;
  }

  Result<expr::ExprPtr> ParseAdditive() {
    size_t mark = Mark();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs, ParseMultiplicative());
    while (true) {
      if (Accept(TokenKind::kPlus)) {
        MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseMultiplicative());
        lhs = expr::Add(std::move(lhs), std::move(rhs));
        NoteExpr(lhs, mark);
      } else if (Accept(TokenKind::kDash)) {
        MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseMultiplicative());
        lhs = expr::Sub(std::move(lhs), std::move(rhs));
        NoteExpr(lhs, mark);
      } else {
        return lhs;
      }
    }
  }

  Result<expr::ExprPtr> ParseMultiplicative() {
    size_t mark = Mark();
    MAD_ASSIGN_OR_RETURN(expr::ExprPtr lhs, ParseUnary());
    while (true) {
      if (Accept(TokenKind::kStar)) {
        MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseUnary());
        lhs = expr::Mul(std::move(lhs), std::move(rhs));
        NoteExpr(lhs, mark);
      } else if (Accept(TokenKind::kSlash)) {
        MAD_ASSIGN_OR_RETURN(expr::ExprPtr rhs, ParseUnary());
        lhs = expr::Div(std::move(lhs), std::move(rhs));
        NoteExpr(lhs, mark);
      } else {
        return lhs;
      }
    }
  }

  Result<expr::ExprPtr> ParseUnary() {
    size_t mark = Mark();
    if (Accept(TokenKind::kDash)) {
      MAD_ASSIGN_OR_RETURN(expr::ExprPtr operand, ParseUnary());
      expr::ExprPtr e = expr::Sub(expr::Lit(int64_t{0}), std::move(operand));
      NoteExpr(e, mark);
      return e;
    }
    return ParsePrimary();
  }

  Result<expr::ExprPtr> ParsePrimary() {
    size_t mark = Mark();
    auto noted = [&](expr::ExprPtr e) {
      NoteExpr(e, mark);
      return e;
    };
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kString:
        Advance();
        return noted(expr::Lit(Value(t.text)));
      case TokenKind::kInteger:
        Advance();
        return noted(expr::Lit(Value(t.int_value)));
      case TokenKind::kDouble:
        Advance();
        return noted(expr::Lit(Value(t.double_value)));
      case TokenKind::kTrue:
        Advance();
        return noted(expr::Lit(Value(true)));
      case TokenKind::kFalse:
        Advance();
        return noted(expr::Lit(Value(false)));
      case TokenKind::kNull:
        Advance();
        return noted(expr::Lit(Value()));
      case TokenKind::kIdentifier: {
        std::string first = Advance().text;
        if (Accept(TokenKind::kDot)) {
          MAD_ASSIGN_OR_RETURN(std::string attr,
                               ExpectIdentifier("attribute name"));
          return noted(expr::Attr(std::move(first), std::move(attr)));
        }
        return noted(expr::Attr(std::move(first)));
      }
      case TokenKind::kCount: {
        Advance();
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kLParen));
        MAD_ASSIGN_OR_RETURN(std::string label,
                             ExpectIdentifier("node label"));
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return noted(expr::Count(std::move(label)));
      }
      case TokenKind::kLParen: {
        Advance();
        MAD_ASSIGN_OR_RETURN(expr::ExprPtr inner, ParseExpr());
        MAD_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        return inner;
      }
      default:
        return Error(std::string("unexpected ") + TokenKindName(t.kind) +
                     " in expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  ExprSpanMap expr_spans_;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& text) {
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseOne();
}

Result<std::vector<Statement>> ParseScript(const std::string& text) {
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseAll();
}

}  // namespace mql
}  // namespace mad
