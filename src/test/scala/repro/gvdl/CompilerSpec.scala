package repro.gvdl

import org.apache.spark.sql.functions._
import repro.{Oracle, ReproSpec}
import repro.graph.GraphGen
import repro.views.FilteredView

/** Compiled GVDL predicates checked against DuckDB SQL over the resolved
  * edge frame — the filter semantics must match a plain SQL WHERE.
  */
class CompilerSpec extends ReproSpec {

  private lazy val graph = GraphGen.callGraph(spark, nV = 120, nE = 900)
  private lazy val resolved = graph.resolved.localCheckpoint(true)

  /** Check `pred` (GVDL) against `where` (DuckDB SQL) on the resolved frame. */
  private def check(pred: String, where: String): Unit = {
    val flat = resolved.select("eid", "duration", "year",
                               "src_state", "dst_state", "src_profession", "dst_city")
    val got = flat.where(Compiler.edgePredicate(Parser.parsePredicate(pred), flat.columns.toSeq))
      .select(col("eid").cast("string").as("eid"))
    Oracle.assertEquivalent(got,
      s"SELECT eid FROM edges WHERE $where", "edges" -> flat)
  }

  test("numeric comparison on an edge property") {
    check("duration > 10", "CAST(duration AS INT) > 10")
  }

  test("equality on endpoint string properties") {
    check("src.state = 'CA' and dst.state = 'CA'",
          "src_state = 'CA' AND dst_state = 'CA'")
  }

  test("Listing 1 predicate end to end") {
    check("src.state = 'CA' and dst.state = 'CA' and duration > 10 and year = 2019",
          "src_state = 'CA' AND dst_state = 'CA' AND CAST(duration AS INT) > 10 AND CAST(year AS INT) = 2019")
  }

  test("disjunction") {
    check("src.profession = 'doctor' or dst.city = 'LA'",
          "src_profession = 'doctor' OR dst_city = 'LA'")
  }

  test("negation") {
    check("not src.state = 'CA'", "NOT (src_state = 'CA')")
  }

  test("inequality and bounds combined") {
    check("duration >= 5 and duration <= 15 and year != 2012",
          "CAST(duration AS INT) BETWEEN 5 AND 15 AND CAST(year AS INT) <> 2012")
  }

  test("parenthesized mix") {
    check("(year = 2010 or year = 2011) and duration < 4",
          "(CAST(year AS INT) = 2010 OR CAST(year AS INT) = 2011) AND CAST(duration AS INT) < 4")
  }

  test("filtered view materialization keeps the edge schema") {
    val view = FilteredView.fromGvdl(graph,
      "create view v on Calls edges where duration <= 3")
    assert(view.columns.toSeq == graph.edges.columns.toSeq)
    val direct = graph.resolved.where(col("duration") <= 3).count()
    assert(view.count() == direct)
  }

  test("node predicate rejects src./dst. references") {
    assertThrows[IllegalArgumentException] {
      Compiler.nodePredicate(Parser.parsePredicate("src.state = 'CA'"),
                             graph.nodes.columns.toSeq)
    }
  }

  test("an unknown property is a named error, not a Spark AnalysisException") {
    val e = intercept[IllegalArgumentException] {
      FilteredView.fromGvdl(graph, "create view v on Calls edges where src.nosuch = 'CA'")
    }
    assert(e.getMessage.contains("unknown property src.nosuch"), e.getMessage)
    assert(e.getMessage.contains("src_state"), e.getMessage)
  }
}
