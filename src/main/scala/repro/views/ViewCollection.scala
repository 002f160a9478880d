package repro.views

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.diff.EdgeArrangement
import repro.diff.EdgeArrangement.Delta
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Parser}
import repro.ordering.{CollectionOrderer, Hamming}

/** A view collection (§3.2): views organized as a single timestamped
  * edge-difference stream, which the collection hands out on the driver.
  *
  * A collection built from predicates keeps its EBM on the driver as
  * columns ([[Ebm.Columns]]: `eid, src, dst, weight` and a pattern id per
  * edge, plus the pattern table), O(|E| + #patterns·⌈k/64⌉) memory for the
  * collection's life, and its stream factorized: `totalDiffs` and the
  * ordering come from the pattern table, and each call of `deltas` expands
  * the stream from the columns ([[DiffStream.deltas]]) with no Spark
  * planning. The build makes no `Row` and no DataFrame; `ebm` exports the
  * columns as a frame on its first read.
  *
  * @param name        collection name
  * @param viewNames   view names in *execution* order (after ordering)
  * @param order       σ: execution position → original view index
  * @param deltas      the difference stream on the driver: `deltas()(t)`
  *                    is δC_t (empty where view t equals view t−1). Built
  *                    from predicates, each call expands the EBM's driver
  *                    columns and nothing is kept between calls; an
  *                    explicit stream is held as given. Neither runs a
  *                    Spark job
  * @param numViews    k
  * @param totalDiffs  Σ_t |δC_t| (the COP objective value of `order`),
  *                    summed over bit patterns when built from predicates
  * @param columns     the packed edge boolean matrix as driver columns,
  *                    when built from predicates (absent for explicit-diff
  *                    collections)
  * @param cct         collection creation time breakdown, milliseconds
  */
final case class ViewCollection(
    name: String,
    viewNames: Seq[String],
    order: Seq[Int],
    deltas: () => IndexedSeq[Seq[Delta]],
    numViews: Int,
    totalDiffs: Long,
    columns: Option[Ebm.Columns],
    cct: ViewCollection.Cct) {

  /** `columns` exported as a local EBM frame in the active session
    * ([[Ebm.Columns.frame]]), built on first read.
    */
  lazy val ebm: Option[DataFrame] = columns.map(_.frame(SparkSession.active))

  /** The view at execution position t, Σ_{s<=t} δC_s, folded through an
    * [[repro.diff.EdgeArrangement]] from one read of `deltas`, with its
    * checks on absent deletions and duplicate additions. A local frame
    * `eid, src, dst, weight` in the active session.
    */
  def viewEdges(t: Int): DataFrame = {
    val view = new EdgeArrangement
    deltas().take(t + 1).foreach(view.update)
    val spark = SparkSession.active
    import spark.implicits._
    view.edges.toSeq.map(d => (d.eid, d.src, d.dst, d.weight)).toDF("eid", "src", "dst", "weight")
  }
}

object ViewCollection {

  /** CCT breakdown, milliseconds. For a collection built from predicates:
    * `ebmMs` computes the EBM as driver columns with its pattern table from
    * the graph's resolved rows, including the Spark job that collects them
    * on the graph's first build (the edge–node join) and not after;
    * `orderMs` orders the views from the pattern table;
    * `diffMs` sums Σ_t |δC_t| over the patterns. Both run on the driver.
    * `patterns` is the number of distinct patterns. An
    * explicit-diff collection holds its stream as given and records all
    * three as 0.
    */
  final case class Cct(ebmMs: Long, orderMs: Long, diffMs: Long, patterns: Long = 0) {
    def totalMs: Long = ebmMs + orderMs + diffMs
  }

  /** How to order the views before building the difference stream. */
  sealed trait OrderStrategy
  /** Keep the user-given order (e.g. inclusion chains like D1..D34). */
  case object GivenOrder extends OrderStrategy
  /** Algorithm 1 (Hamming clique + TSP heuristic). */
  case object GraphsurgeOrder extends OrderStrategy
  /** Seeded random order (Table 4 baseline). */
  final case class RandomOrder(seed: Long) extends OrderStrategy

  /** Build a collection from named predicates (§3.2 steps 1–3) on the
    * driver: the EBM is computed as driver columns with its pattern table
    * from the graph's resolved rows, which only a graph's first build
    * collects, in one Spark job. The ordering and Σ_t |δC_t| run once per
    * distinct pattern; the stream is expanded only when `deltas` is read.
    */
  def build(graph: PropertyGraph, name: String,
            views: Seq[(String, Ast.Expr)],
            strategy: OrderStrategy = GivenOrder): ViewCollection = {
    val k = views.size
    require(k >= 1, "a view collection needs at least one view")

    val t0  = System.nanoTime()
    val columns = Ebm.columns(graph, views.map(_._2))
    val t1  = System.nanoTime()

    val patterns = columns.patterns
    val order = strategy match {
      case GivenOrder        => 0 until k
      case RandomOrder(seed) => CollectionOrderer.randomOrder(k, seed)
      case GraphsurgeOrder   =>
        CollectionOrderer.fromDistances(Hamming.fromPatterns(patterns, k)).order
    }
    val t2 = System.nanoTime()

    val total = DiffStream.count(patterns, order)
    val t3    = System.nanoTime()

    val cct = Cct((t1 - t0) / 1000000, (t2 - t1) / 1000000, (t3 - t2) / 1000000,
                  patterns.size.toLong)
    if (sys.env.contains("REPRO_VERBOSE"))
      Console.err.println(
        f"[cct] $name%s views=$k%d patterns=${cct.patterns}%d diffs=$total%d " +
        f"ebm=${cct.ebmMs}%d order=${cct.orderMs}%d diff=${cct.diffMs}%d ms")
    ViewCollection(name, order.map(views(_)._1), order, () => DiffStream.deltas(columns, order), k,
                   total, Some(columns), cct)
  }

  /** Build from a GVDL `create view collection` statement. */
  def fromGvdl(graph: PropertyGraph, gvdl: String,
               strategy: OrderStrategy = GivenOrder): ViewCollection =
    Parser.parse(gvdl) match {
      case Ast.CreateViewCollection(name, _, views) => build(graph, name, views, strategy)
      case other =>
        throw new IllegalArgumentException(s"not a view-collection statement: $other")
    }

  /** Build a collection from explicit per-view difference sets held on the
    * driver (the §5 controlled experiment / Table 2 construction: artificial
    * collections made by random edge additions and removals). `deltas()`
    * returns `perView` as given, so neither building nor reading the stream
    * runs a Spark job.
    */
  def fromExplicitDiffs(name: String, perView: Seq[Seq[Delta]]): ViewCollection = {
    val held = perView.toIndexedSeq
    ViewCollection(name, held.indices.map(t => s"v$t"), held.indices, () => held, held.size,
                   held.map(_.size.toLong).sum, None, Cct(0, 0, 0))
  }
}
