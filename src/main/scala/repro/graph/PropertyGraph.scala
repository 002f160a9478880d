package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.LongType

/** Property-graph model (§2 of the paper).
  *
  * A graph is a pair of DataFrames:
  *   - `nodes`: column `id: Long` plus arbitrary key-value property columns
  *     (string / integer / boolean / double — matching the paper's supported
  *     property types plus doubles for edge weights).
  *   - `edges`: columns `eid: Long` (unique 64-bit edge id, assigned on
  *     load, mirroring the paper's Storage Manager), `src: Long`,
  *     `dst: Long`, `weight: Double`, plus arbitrary property columns.
  *
  * The `resolved` frame joins edges with the property columns of both
  * endpoints (prefixed `src_` / `dst_`) so GVDL predicates over
  * `src.prop`, `dst.prop` and edge properties compile to plain Catalyst
  * expressions over a single frame — the Spark analog of the paper's
  * "join node IDs with the vertex property stream, then filter" dataflow.
  */
final case class PropertyGraph(nodes: DataFrame, edges: DataFrame) {
  require(nodes.columns.contains("id"), "nodes must have an `id` column")
  Seq("eid", "src", "dst").foreach { c =>
    require(edges.columns.contains(c), s"edges must have a `$c` column")
  }
  require(edges.schema("eid").dataType == LongType, "edges' `eid` must be a long")

  /** Node property column names (everything except the id). */
  def nodePropCols: Seq[String] = nodes.columns.toSeq.filterNot(_ == "id")

  /** Edge property column names (everything except eid/src/dst). */
  def edgePropCols: Seq[String] =
    edges.columns.toSeq.filterNot(Set("eid", "src", "dst").contains)

  /** Edges joined with src/dst node properties as `src_*` / `dst_*`.
    *
    * Built lazily, and only planned: the EBM reads [[resolvedRows]], the
    * driver copy of this frame, so the join runs once per graph.
    */
  lazy val resolved: DataFrame = {
    val srcProps = nodes.select(
      col("id").as("__sid") +: nodePropCols.map(c => col(c).as(s"src_$c")): _*)
    val dstProps = nodes.select(
      col("id").as("__did") +: nodePropCols.map(c => col(c).as(s"dst_$c")): _*)
    edges
      .join(srcProps, edges("src") === srcProps("__sid"), "left")
      .join(dstProps, edges("dst") === dstProps("__did"), "left")
      .drop("__sid", "__did")
  }

  /** `resolved` on the driver: its analyzed output attributes and its rows
    * as Catalyst internal rows, in ascending `eid` (a stable sort, so the
    * order does not depend on partitioning or join strategy). Collected by
    * one Spark job on first use and held for the graph's life,
    * O(|E| × row width).
    */
  lazy val resolvedRows: (Seq[Attribute], Array[InternalRow]) = {
    val qe = resolved.queryExecution
    val eid = qe.analyzed.output.indexWhere(_.name == "eid")
    (qe.analyzed.output, qe.toRdd.map(_.copy()).collect().sortBy(_.getLong(eid)))
  }

  /** Number of edges. */
  def numEdges: Long = edges.count()

  /** The plain topology frame used by the analytics engine. */
  def topology: DataFrame = {
    val w =
      if (edges.columns.contains("weight")) col("weight").cast("double")
      else lit(1.0)
    edges.select(col("eid"), col("src"), col("dst"), w.as("weight"))
  }

  /** Vertex universe used by analytics: the full node set of the base
    * graph (views filter edges; nodes isolated in a view remain vertices,
    * consistent with the paper's per-vertex outputs).
    */
  def vertexIds: DataFrame = nodes.select(col("id").as("vid"))
}
