package repro.gvdl

import Ast._
import Lexer._

/** Recursive-descent parser for GVDL statements and predicates.
  *
  * Grammar (keywords case-insensitive):
  * {{{
  * stmt       := CREATE VIEW COLLECTION name ON graph viewdef (',' viewdef)*
  *             | CREATE VIEW name ON graph [EDGES] WHERE expr
  *             | CREATE AGGREGATE VIEW name ON graph
  *                 [NODES WHERE expr]
  *                 NODES GROUP BY ident (',' ident)*
  *                 [NODES AGGREGATE agg (',' agg)*]
  *                 [EDGES AGGREGATE agg (',' agg)*]
  * viewdef    := '[' name ':' expr ']'
  * agg        := COUNT '(' '*' ')' AS ident | fn '(' ident ')' AS ident
  * fn         := COUNT | SUM | MIN | MAX | AVG
  * expr       := and (OR and)* ; and := unary (AND unary)*
  * unary      := NOT unary | '(' expr ')' | cmp
  * cmp        := operand (op operand)? ; op := = != < <= > >=
  * operand    := SRC '.' ident | DST '.' ident | ident | number | string
  *             | TRUE | FALSE
  * }}}
  */
final class Parser(tokens: Vector[Token]) {
  private var pos = 0

  private def cur: Token = tokens(pos)
  private def fail(msg: String): Nothing =
    throw new IllegalArgumentException(s"parse error at token #$pos ($cur): $msg")

  private def isKw(t: Token, kw: String): Boolean = t match {
    case Ident(s) => s.equalsIgnoreCase(kw)
    case _        => false
  }
  private def expectKw(kw: String): Unit =
    if (isKw(cur, kw)) pos += 1 else fail(s"expected keyword '$kw'")
  private def expectSym(s: String): Unit = cur match {
    case Sym(x) if x == s => pos += 1
    case _                => fail(s"expected '$s'")
  }
  private def ident(): String = cur match {
    case Ident(s) => pos += 1; s
    case _        => fail("expected identifier")
  }

  /** `rule`'s result, if the rule consumed the whole input. */
  def whole[A](rule: Parser => A): A =
    rule(this) match { case a if cur == EOF => a; case _ => fail("expected end of input") }

  // ---------------------------------------------------------------- stmt

  def statement(): Stmt = {
    expectKw("create")
    if (isKw(cur, "aggregate")) { pos += 1; aggView() }
    else {
      expectKw("view")
      if (isKw(cur, "collection")) { pos += 1; viewCollection() }
      else filteredView()
    }
  }

  private def filteredView(): CreateView = {
    val name = ident(); expectKw("on"); val g = ident()
    if (isKw(cur, "edges")) pos += 1
    expectKw("where")
    CreateView(name, g, expr())
  }

  private def viewCollection(): CreateViewCollection = {
    val name = ident(); expectKw("on"); val g = ident()
    val views = Vector.newBuilder[(String, Expr)]
    var more = true
    while (more) {
      expectSym("[")
      val vn = ident(); expectSym(":")
      views += vn -> expr()
      expectSym("]")
      if (cur == Sym(",")) pos += 1
      more = cur == Sym("[")
    }
    CreateViewCollection(name, g, views.result())
  }

  private def aggView(): CreateAggView = {
    expectKw("view")
    val name = ident(); expectKw("on"); val g = ident()
    var nodeWhere: Option[Expr] = None
    var groupBy: Seq[String] = Nil
    var nodeAggs: Seq[AggSpec] = Nil
    var edgeAggs: Seq[AggSpec] = Nil
    while (cur != EOF) {
      if (isKw(cur, "nodes")) {
        pos += 1
        if (isKw(cur, "where")) { pos += 1; nodeWhere = Some(expr()) }
        else if (isKw(cur, "group")) { pos += 1; expectKw("by"); groupBy = identList() }
        else if (isKw(cur, "aggregate")) { pos += 1; nodeAggs = aggList() }
        else fail("expected WHERE, GROUP BY or AGGREGATE after NODES")
      } else if (isKw(cur, "edges")) {
        pos += 1; expectKw("aggregate"); edgeAggs = aggList()
      } else fail("expected NODES or EDGES clause")
    }
    require(groupBy.nonEmpty, "aggregate view needs NODES GROUP BY")
    CreateAggView(name, g, nodeWhere, groupBy, nodeAggs, edgeAggs)
  }

  private def identList(): Seq[String] = {
    val b = Vector.newBuilder[String]
    b += ident()
    while (cur == Sym(",")) { pos += 1; b += ident() }
    b.result()
  }

  private def aggList(): Seq[AggSpec] = {
    val b = Vector.newBuilder[AggSpec]
    b += agg()
    while (cur == Sym(",")) { pos += 1; b += agg() }
    b.result()
  }

  private def agg(): AggSpec = {
    val fn = cur match {
      case Ident(s) if Set("count", "sum", "min", "max", "avg")(s.toLowerCase) =>
        pos += 1; s.toLowerCase
      case _ => fail("expected an aggregate function: count, sum, min, max or avg")
    }
    expectSym("(")
    val arg = cur match {
      case Sym("*") if fn == "count" => pos += 1; None
      case Sym("*")                  => fail(s"'$fn(*)' is not an aggregate; only count(*) is")
      case _                         => Some(ident())
    }
    expectSym(")")
    expectKw("as")
    AggSpec(fn, arg, ident())
  }

  // ---------------------------------------------------------------- expr

  def expr(): Expr = {
    var l = andExpr()
    while (isKw(cur, "or")) { pos += 1; l = Or(l, andExpr()) }
    l
  }

  private def andExpr(): Expr = {
    var l = unary()
    while (isKw(cur, "and")) { pos += 1; l = And(l, unary()) }
    l
  }

  private def unary(): Expr =
    if (isKw(cur, "not")) { pos += 1; Not(unary()) }
    else if (cur == Sym("(")) { pos += 1; val e = expr(); expectSym(")"); e }
    else cmp()

  private def cmp(): Expr = {
    val l = operand()
    cur match {
      case Sym(op @ ("=" | "!=" | "<" | "<=" | ">" | ">=")) =>
        pos += 1
        Cmp(op, l, operand())
      case _ => l // bare boolean property
    }
  }

  // Consumes a token only once it matched: `pos` never passes EOF.
  private def operand(): Expr = cur match {
    case Ident(s) if s.equalsIgnoreCase("true")  => pos += 1; BoolLit(true)
    case Ident(s) if s.equalsIgnoreCase("false") => pos += 1; BoolLit(false)
    case Ident(s) if Set("src", "dst")(s.toLowerCase) && tokens(pos + 1) == Sym(".") =>
      pos += 2
      PropRef(if (s.equalsIgnoreCase("src")) SrcT else DstT, ident())
    case Ident(s) => pos += 1; PropRef(EdgeT, s)
    case Num(v)   => pos += 1; NumLit(v)
    case Str(v)   => pos += 1; StrLit(v)
    case t        => fail(s"unexpected operand $t")
  }
}

object Parser {
  /** Parse a full GVDL statement; nothing may follow it. */
  def parse(input: String): Stmt = new Parser(Lexer.tokenize(input)).whole(_.statement())

  /** Parse a bare predicate expression (used by programmatic view specs);
    * nothing may follow it.
    */
  def parsePredicate(input: String): Expr = new Parser(Lexer.tokenize(input)).whole(_.expr())
}
