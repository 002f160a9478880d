package repro.agg

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Compiler, Parser}

/** Aggregate views (§6): Graph-OLAP style summaries.
  *
  * Nodes (optionally pre-filtered by a `nodes where` clause) are grouped on
  * a set of properties into super-nodes; every original edge whose
  * endpoints both survive the filter contributes to the super-edge between
  * its endpoints' super-nodes, carrying user-specified edge aggregates.
  * Evaluated as plain Spark SQL aggregation, the analog of the paper's TD
  * aggregation dataflow.
  */
object AggregateView {

  /** @param superNodes `super_id` + group-by property columns + node aggs
    * @param superEdges `src_super, dst_super` + edge aggs (+ implicit
    *                   `num_edges` count)
    */
  final case class Result(superNodes: DataFrame, superEdges: DataFrame)

  def build(graph: PropertyGraph, stmt: Ast.CreateAggView): Result = {
    val nodesF = stmt.nodeWhere
      .map(w => graph.nodes.where(Compiler.nodePredicate(w, graph.nodes.columns.toSeq)))
      .getOrElse(graph.nodes)

    val groupCols = stmt.groupBy.map(col)
    val nodeAggs =
      (count(lit(1)).as("num_nodes") +: stmt.nodeAggs.map(Compiler.aggregate))
    val superNodes = nodesF
      .groupBy(groupCols: _*)
      .agg(nodeAggs.head, nodeAggs.tail: _*)
      .withColumn("super_id",
        row_number().over(org.apache.spark.sql.expressions.Window
          .orderBy(stmt.groupBy.map(col): _*)))

    val mapping = nodesF.select(col("id") +: groupCols: _*)
      .join(superNodes.select(col("super_id") +: groupCols: _*), stmt.groupBy)
      .select(col("id"), col("super_id"))

    val edgeAggs =
      (count(lit(1)).as("num_edges") +: stmt.edgeAggs.map(Compiler.aggregate))
    val superEdges = graph.edges
      .join(mapping.select(col("id").as("__s"), col("super_id").as("src_super")),
            col("src") === col("__s"))
      .join(mapping.select(col("id").as("__d"), col("super_id").as("dst_super")),
            col("dst") === col("__d"))
      .groupBy(col("src_super"), col("dst_super"))
      .agg(edgeAggs.head, edgeAggs.tail: _*)

    Result(superNodes, superEdges)
  }

  /** Build from GVDL text. */
  def fromGvdl(graph: PropertyGraph, gvdl: String): Result =
    Parser.parse(gvdl) match {
      case s: Ast.CreateAggView => build(graph, s)
      case other =>
        throw new IllegalArgumentException(s"not an aggregate-view statement: $other")
    }
}
