package repro.views

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.diff.Engine
import repro.diff.EdgeArrangement.Delta
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Parser}
import repro.ordering.{CollectionOrderer, Hamming}

/** A view collection (§3.2): views organized as a single timestamped
  * edge-difference stream.
  *
  * A collection built from predicates keeps its EBM checkpointed and its
  * stream factorized: `totalDiffs` and the ordering come from the EBM's
  * distinct bit patterns, and `diffs` is a lazy frame over the EBM that
  * each reader (`deltas()`, `viewEdges`) expands when it reads it.
  *
  * @param name        collection name
  * @param viewNames   view names in *execution* order (after ordering)
  * @param order       σ: execution position → original view index
  * @param diffs       difference stream `t, eid, src, dst, weight, diff`;
  *                    built from predicates, a lazy frame over `ebm`
  * @param numViews    k
  * @param totalDiffs  Σ_t |δC_t| (the COP objective value of `order`),
  *                    summed over bit patterns when built from predicates
  * @param ebm         the packed edge boolean matrix, checkpointed, when
  *                    built from predicates (absent for explicit-diff
  *                    collections)
  * @param cct         collection creation time breakdown, milliseconds
  */
final case class ViewCollection(
    name: String,
    viewNames: Seq[String],
    order: Seq[Int],
    diffs: DataFrame,
    numViews: Int,
    totalDiffs: Long,
    ebm: Option[DataFrame],
    cct: ViewCollection.Cct) {

  /** The difference stream on the driver: `deltas()(t)` is δC_t (empty where
    * view t equals view t−1), rows in the order a frame of position t alone
    * collects in. No copy is kept, so a collection that never runs
    * analytics holds none on the driver. A stream built from predicates
    * costs one Spark job per call, which expands it from the EBM; an
    * explicit one is local and costs none.
    */
  def deltas(): IndexedSeq[Seq[Delta]] = {
    val byT = IndexedSeq.fill(numViews)(Vector.newBuilder[Delta])
    diffs.select(col("t").cast("int"), col("eid").cast("long"), col("src").cast("long"),
                 col("dst").cast("long"), col("weight").cast("double"), col("diff").cast("int"))
      .collect()
      .foreach(r => byT(r.getInt(0)) +=
        Delta(r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4), r.getInt(5)))
    byT.map(_.result())
  }

  /** The view at execution position t, folded from the difference stream:
    * Σ_{s<=t} δC_s.
    */
  def viewEdges(t: Int): DataFrame =
    diffs.where(col("t") <= t)
      .groupBy("eid", "src", "dst", "weight")
      .agg(sum("diff").as("m"))
      .where(col("m") > 0)
      .select("eid", "src", "dst", "weight")
}

object ViewCollection {

  /** CCT breakdown, milliseconds. For a collection built from predicates:
    * `ebmMs` computes and checkpoints the EBM (Spark job 1); `orderMs`
    * counts its distinct bit patterns (job 2) and orders the views from
    * them on the driver; `diffMs` sums Σ_t |δC_t| over the patterns and
    * plans the lazy stream, on the driver. `patterns` is the number of
    * distinct patterns (0 for an explicit-diff collection, whose `diffMs`
    * is the local stream's construction).
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

  /** Build a collection from named predicates (§3.2 steps 1–3) in two
    * Spark jobs: the EBM and its pattern histogram. Ordering and Σ_t |δC_t|
    * run on the driver, once per distinct pattern; the stream is not
    * materialized.
    */
  def build(graph: PropertyGraph, name: String,
            views: Seq[(String, Ast.Expr)],
            strategy: OrderStrategy = GivenOrder): ViewCollection = {
    val k = views.size
    require(k >= 1, "a view collection needs at least one view")

    val t0  = System.nanoTime()
    val ebm = Engine.ckpt(Ebm.compute(graph, views.map(_._2)))
    val t1  = System.nanoTime()

    val patterns = Ebm.patterns(ebm)
    val order = strategy match {
      case GivenOrder        => 0 until k
      case RandomOrder(seed) => CollectionOrderer.randomOrder(k, seed)
      case GraphsurgeOrder   =>
        CollectionOrderer.fromDistances(Hamming.fromPatterns(patterns, k)).order
    }
    val t2 = System.nanoTime()

    val total = DiffStream.count(patterns, order)
    val diffs = DiffStream.compute(ebm, order)
    val t3    = System.nanoTime()

    val cct = Cct((t1 - t0) / 1000000, (t2 - t1) / 1000000, (t3 - t2) / 1000000,
                  patterns.size.toLong)
    if (sys.env.contains("REPRO_VERBOSE"))
      Console.err.println(
        f"[cct] $name%s views=$k%d patterns=${cct.patterns}%d diffs=$total%d " +
        f"ebm=${cct.ebmMs}%d order=${cct.orderMs}%d diff=${cct.diffMs}%d ms")
    ViewCollection(name, order.map(views(_)._1), order, diffs, k, total, Some(ebm), cct)
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
    * collections made by random edge additions and removals). The stream
    * is one local relation in the given row order, so building it runs no
    * Spark job and reading it back runs none either.
    */
  def fromExplicitDiffs(spark: SparkSession, name: String,
                        perView: Seq[Seq[Delta]]): ViewCollection = {
    import spark.implicits._
    val t0 = System.nanoTime()
    val stream = perView.zipWithIndex
      .flatMap { case (ds, t) => ds.map(d => (t, d.eid, d.src, d.dst, d.weight, d.diff)) }
      .toDF("t", "eid", "src", "dst", "weight", "diff")
    val t1 = System.nanoTime()
    ViewCollection(
      name, perView.indices.map(t => s"v$t"), perView.indices,
      stream, perView.size, perView.map(_.size.toLong).sum, None,
      Cct(0, 0, (t1 - t0) / 1000000))
  }
}
