package repro.gvdl

import org.scalatest.funsuite.AnyFunSuite
import Ast._

class ParserSpec extends AnyFunSuite {

  test("Listing 1: filtered view with conjunctive predicate") {
    val s = Parser.parse(
      """create view CA-Long-Calls on Calls
         edges where src.state = 'CA' and dst.state = 'CA'
         and duration > 10 and year = 2019""")
    val v = s.asInstanceOf[CreateView]
    assert(v.name == "CA-Long-Calls")
    assert(v.graph == "Calls")
    v.where match {
      case And(And(And(Cmp("=", PropRef(SrcT, "state"), StrLit("CA")),
                       Cmp("=", PropRef(DstT, "state"), StrLit("CA"))),
                   Cmp(">", PropRef(EdgeT, "duration"), NumLit(10.0))),
               Cmp("=", PropRef(EdgeT, "year"), NumLit(2019.0))) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("Listing 3: view collection with ≤ predicates") {
    val s = Parser.parse(
      """create view collection call-analysis on Calls
         [D1-Y2010: duration≤1 and year≤2010],
         [D2-Y2010: duration≤2 and year≤2010],
         [D3-Y2010: duration≤3 and year≤2010]""")
    val c = s.asInstanceOf[CreateViewCollection]
    assert(c.name == "call-analysis")
    assert(c.views.map(_._1) == Seq("D1-Y2010", "D2-Y2010", "D3-Y2010"))
    c.views.head._2 match {
      case And(Cmp("<=", PropRef(EdgeT, "duration"), NumLit(1.0)),
               Cmp("<=", PropRef(EdgeT, "year"), NumLit(2010.0))) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("or binds looser than and") {
    Parser.parsePredicate("a = 1 or b = 2 and c = 3") match {
      case Or(Cmp("=", PropRef(EdgeT, "a"), _), And(_, _)) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("parentheses override precedence") {
    Parser.parsePredicate("(a = 1 or b = 2) and c = 3") match {
      case And(Or(_, _), Cmp("=", PropRef(EdgeT, "c"), _)) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("not parses as unary") {
    Parser.parsePredicate("not a = 1 and b = 2") match {
      case And(Not(Cmp("=", _, _)), Cmp("=", _, _)) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("bare boolean property is a valid predicate") {
    Parser.parsePredicate("flagged") match {
      case PropRef(EdgeT, "flagged") => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("boolean literals parse") {
    Parser.parsePredicate("flagged = true") match {
      case Cmp("=", PropRef(EdgeT, "flagged"), BoolLit(true)) => ()
      case other => fail(s"unexpected AST: $other")
    }
  }

  test("aggregate view with group by and both aggregate clauses") {
    val s = Parser.parse(
      """create aggregate view city-calls-city on Calls
         nodes group by city
         nodes aggregate count(*) as num-phones
         edges aggregate sum(duration) as total-duration""")
    val a = s.asInstanceOf[CreateAggView]
    assert(a.groupBy == Seq("city"))
    assert(a.nodeAggs == Seq(AggSpec("count", None, "num-phones")))
    assert(a.edgeAggs == Seq(AggSpec("sum", Some("duration"), "total-duration")))
  }

  test("aggregate view with node filter") {
    val s = Parser.parse(
      """create aggregate view prof on Calls
         nodes where profession = 'doctor' or profession = 'lawyer'
         nodes group by profession, city
         edges aggregate count(*) as num-calls""")
    val a = s.asInstanceOf[CreateAggView]
    assert(a.nodeWhere.nonEmpty)
    assert(a.groupBy == Seq("profession", "city"))
  }

  test("aggregate view without group by is rejected") {
    assertThrows[IllegalArgumentException](Parser.parse(
      "create aggregate view x on G edges aggregate count(*) as c"))
  }

  test("unknown aggregate function is rejected") {
    assertThrows[IllegalArgumentException](Parser.parse(
      "create aggregate view x on G nodes group by a nodes aggregate median(b) as m"))
  }

  test("sum(*) is rejected at the star, not at compile time") {
    val e = intercept[IllegalArgumentException](Parser.parse(
      "create aggregate view x on G nodes group by a nodes aggregate sum(*) as s"))
    assert(e.getMessage.contains("parse error at token #") && e.getMessage.contains("sum(*)"))
  }

  test("garbage after operand fails") {
    assertThrows[IllegalArgumentException](Parser.parse("create view x on"))
  }

  test("a truncated predicate is a positioned parse error") {
    for (in <- Seq("duration <=", "duration <= 8 and", "not")) {
      val e = intercept[IllegalArgumentException](Parser.parsePredicate(in))
      assert(e.getMessage.startsWith("parse error at token #"), s"'$in': ${e.getMessage}")
    }
    // A bad operand is reported at its own position, not the next token's.
    val e = intercept[IllegalArgumentException](Parser.parsePredicate("duration <= )"))
    assert(e.getMessage.startsWith("parse error at token #2 (Sym())"), e.getMessage)
  }

  test("trailing tokens are a positioned parse error, not dropped") {
    val inputs = Seq[() => Any](
      () => Parser.parsePredicate("duration <= 8 abd dst.x = 1"),
      () => Parser.parse("create view v on g where duration <= 8 abd dst.x = 1"),
      () => Parser.parse("create view collection c on g [a: duration <= 8], garbage"))
    for (in <- inputs) {
      val e = intercept[IllegalArgumentException](in())
      assert(e.getMessage.startsWith("parse error at token #") &&
             e.getMessage.contains("expected end of input"), e.getMessage)
    }
  }

  test("comparison operators all parse") {
    for (op <- Seq("=", "!=", "<", "<=", ">", ">=")) {
      Parser.parsePredicate(s"a $op 1") match {
        case Cmp(o, _, _) => assert(o == op)
        case other        => fail(s"unexpected AST: $other")
      }
    }
  }

  test("view collection views separated without commas also parse") {
    val c = Parser.parse(
      "create view collection c on G [a: x = 1] [b: x = 2]")
      .asInstanceOf[CreateViewCollection]
    assert(c.views.size == 2)
  }
}
