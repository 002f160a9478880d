package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

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

  /** Node property column names (everything except the id). */
  def nodePropCols: Seq[String] = nodes.columns.toSeq.filterNot(_ == "id")

  /** Edge property column names (everything except eid/src/dst). */
  def edgePropCols: Seq[String] =
    edges.columns.toSeq.filterNot(Set("eid", "src", "dst").contains)

  /** Edges joined with src/dst node properties as `src_*` / `dst_*`.
    *
    * Built lazily; callers that evaluate many predicates (EBM computation)
    * should cache the result themselves.
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
