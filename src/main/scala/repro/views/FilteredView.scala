package repro.views

import org.apache.spark.sql.DataFrame
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Compiler}

/** Individual filtered views (§3.1): a single `where` predicate over edge
  * and endpoint properties selects the edges of the output view.
  */
object FilteredView {

  /** Materialize a filtered view: the view's edges with the base edge
    * schema (eid, src, dst, and the edge property columns).
    */
  def materialize(graph: PropertyGraph, predicate: Ast.Expr): DataFrame = {
    val keep = graph.edges.columns.toSeq
    graph.resolved
      .where(Compiler.edgePredicate(predicate, graph.resolved.columns.toSeq))
      .select(keep.map(org.apache.spark.sql.functions.col): _*)
  }

  /** Materialize from GVDL text (`create view ... where ...`). */
  def fromGvdl(graph: PropertyGraph, gvdl: String): DataFrame = {
    repro.gvdl.Parser.parse(gvdl) match {
      case Ast.CreateView(_, _, where) => materialize(graph, where)
      case other =>
        throw new IllegalArgumentException(s"not a filtered-view statement: $other")
    }
  }
}
