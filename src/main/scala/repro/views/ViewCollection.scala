package repro.views

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Parser}
import repro.ordering.{CollectionOrderer, Hamming}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** A view collection (§3.2): views organized as a single timestamped
  * edge-difference stream on the driver. Every collection is its EBM as
  * driver columns ([[Ebm.Columns]]), O(|E| + #patterns·⌈k/64⌉) for its
  * life: `totalDiffs` and the ordering come from the pattern table, and
  * δC_t is read a position at a time as a slice of rows ([[delta]]) with no
  * Spark planning. `ebm` exports the columns as a frame on its first read.
  *
  * @param name        collection name
  * @param viewNames   view names in *execution* order (after ordering)
  * @param order       σ: execution position → original view index
  * @param numViews    k
  * @param totalDiffs  Σ_t |δC_t| (the COP objective value of `order`)
  * @param columns     the packed edge boolean matrix as driver columns
  * @param cct         collection creation time breakdown, milliseconds
  */
final case class ViewCollection(
    name: String,
    viewNames: Seq[String],
    order: Seq[Int],
    numViews: Int,
    totalDiffs: Long,
    columns: Ebm.Columns,
    cct: ViewCollection.Cct) {

  /** `columns` as a local EBM frame ([[Ebm.Columns.frame]]), built on first read. */
  lazy val ebm: Option[DataFrame] = Some(columns.frame(SparkSession.active))

  // Built on the first read of a slice, not by the build.
  private lazy val stream = DiffStream.reader(columns, order.toIndexedSeq)

  /** δC_t, the difference set of execution position t (empty where view t
    * equals view t−1): a slice of `columns`' rows ([[DiffStream.reader]]).
    */
  def delta(t: Int): DiffStream.Slice = stream(t)

  /** The view at execution position t, the rows whose bit `order(t)` is
    * set, as a local frame `eid, src, dst, weight`.
    */
  def viewEdges(t: Int): DataFrame = {
    val in = columns.bits.map(Ebm.isSet(_, order(t)))
    columns.frame(SparkSession.active, i => in(columns.pattern(i))).drop("bits")
  }
}

object ViewCollection {

  /** CCT breakdown, milliseconds. From predicates: `ebmMs` computes the
    * EBM columns and pattern table (with the Spark job that collects the
    * graph's resolved rows on its first build); `orderMs` orders the views
    * and `diffMs` sums Σ_t |δC_t| over the `patterns` patterns on the
    * driver. An explicit collection's `ebmMs` packs its stream; the rest are 0.
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
    * driver: the EBM as columns from the graph's resolved rows (a Spark job
    * on the graph's first build only), then the ordering and Σ_t |δC_t|
    * once per distinct pattern; no stream is built.
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
    ViewCollection(name, order.map(views(_)._1), order, k, total, columns, cct)
  }

  /** Build from a GVDL `create view collection` statement. */
  def fromGvdl(graph: PropertyGraph, gvdl: String,
               strategy: OrderStrategy = GivenOrder): ViewCollection =
    Parser.parse(gvdl) match {
      case Ast.CreateViewCollection(name, _, views) => build(graph, name, views, strategy)
      case other =>
        throw new IllegalArgumentException(s"not a view-collection statement: $other")
    }

  /** An explicit stream's row: `diff` is +1 to add, −1 to delete (which reads only `eid`). */
  final case class Delta(eid: Long, src: Long, dst: Long, weight: Double, diff: Int)

  /** Build a collection from explicit per-view difference sets (§5 /
    * Table 2), packed into columns on the driver: each addition is a row, in
    * stream order, whose bits run from its position to its deletion's (at
    * most k(k+1)/2 patterns). Within a position deletions apply first;
    * deleting an absent eid or adding a present one throws.
    */
  def fromExplicitDiffs(name: String, perView: Seq[Seq[Delta]]): ViewCollection = {
    val t0 = System.nanoTime()
    val k = perView.size
    val adds = mutable.ArrayBuffer.empty[(Delta, Int)] // a row's addition and its position
    val gone = mutable.LongMap.empty[Int]             // row → its deletion's position
    val live = mutable.LongMap.empty[Int]             // eid → its row, while present
    for ((d, t) <- perView.zipWithIndex) {
      for (x <- d if x.diff < 0) gone(live.remove(x.eid).getOrElse(throw new IllegalArgumentException(
        s"position $t deletes edge ${x.eid}, which the view lacks"))) = t
      for (x <- d if x.diff > 0) {
        require(!live.contains(x.eid), s"position $t adds edge ${x.eid}, which the view has")
        live(x.eid) = adds.size
        adds += ((x, t))
      }
    }
    val runs = adds.indices.map(r => (adds(r)._2, gone.getOrElse(r.toLong, k))) // [from, until)
    val patterns = runs.distinct
    val bits = patterns.map { case (from, until) =>
      val b = new Array[Long](Ebm.words(k))
      for (j <- from until until) b(j >> 6) |= 1L << (j & 63)
      ArraySeq.unsafeWrapArray(b)
    }
    val columns = new Ebm.Columns(adds.map(_._1.eid).toArray, adds.map(_._1.src).toArray,
      adds.map(_._1.dst).toArray, adds.map(_._1.weight).toArray,
      runs.map(patterns.zipWithIndex.toMap).toArray, bits)
    ViewCollection(name, (0 until k).map(t => s"v$t"), 0 until k, k, perView.map(_.size.toLong).sum,
                   columns, Cct((System.nanoTime() - t0) / 1000000, 0, 0, patterns.size.toLong))
  }
}
