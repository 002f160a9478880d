package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.views.ViewCollection
import Engine._

/** Analytics Computation Executor for view collections (§3.2.2 + §5).
  *
  * Iterates over the collection's ordered views, maintains the current
  * edge set E_t by applying difference sets, and runs the analytic on each
  * view either differentially (advancing the previous view's result) or
  * from scratch, according to the execution mode. Vertex programs and SCC
  * both run through this one loop. Adaptive mode delegates the choice to
  * [[SplittingOptimizer]]; a scratch run replaces the stored trace, which
  * is exactly a collection split.
  */
object CollectionExecutor {

  sealed trait Mode
  /** Bootstrap view 0 from scratch, everything else differentially. */
  case object DiffOnly extends Mode
  /** Every view from scratch (still sharing across iterations). */
  case object ScratchOnly extends Mode
  /** §5 adaptive splitting, deciding per batch of ℓ views. */
  final case class Adaptive(batch: Int = 1) extends Mode

  /** Per-view execution record. */
  final case class ViewStat(t: Int, viewName: String, ranDiff: Boolean,
                            millis: Long, viewEdges: Long, deltaEdges: Long,
                            iterations: Int, workRows: Long)

  /** Result: per-view stats and, if requested via `keepResults`, the final
    * per-vertex state of each view (collected to the driver as
    * vid → value maps — SCC ids come back as doubles, exact below 2^53).
    */
  final case class CollectionRun(stats: Seq[ViewStat],
                                 results: Seq[Map[Long, Double]]) {
    def totalMillis: Long = stats.map(_.millis).sum
  }

  def run(spark: SparkSession, program: Analytic, vertices: DataFrame,
          collection: ViewCollection, mode: Mode,
          keepResults: Boolean = false): CollectionRun = {

    val optimizer = mode match {
      case Adaptive(b) => Some(new SplittingOptimizer(b))
      case _           => None
    }

    val verts = ckpt(vertices)
    var currentEdges: DataFrame = null // canonical (unsymmetrized) E_t
    var state: RunResult = null
    val stats = Seq.newBuilder[ViewStat]
    val results = Seq.newBuilder[Map[Long, Double]]

    for (t <- 0 until collection.numViews) {
      val (delta, deltaCnt) = ckptCounted(collection.diffsAt(t))
      val adds = fresh(delta.where(col("diff") > 0).select("eid", "src", "dst", "weight"))
      val dels = fresh(delta.where(col("diff") < 0).select("eid"))
      val (edges, edgeCnt) = ckptCounted(
        if (currentEdges == null) adds
        else currentEdges.unionByName(adds).join(dels, Seq("eid"), "left_anti"))
      currentEdges = edges

      val prepared = program.prepareEdges(currentEdges)

      val runDiff = state != null && (mode match {
        case DiffOnly    => true
        case ScratchOnly => false
        case Adaptive(_) => optimizer.get.decide(t, edgeCnt, deltaCnt)
      })

      val t0 = System.nanoTime()
      state =
        if (runDiff) program.advance(spark, verts, prepared, delta, state)
        else program.fromScratch(spark, verts, prepared)
      val ms = (System.nanoTime() - t0) / 1000000
      optimizer.foreach(_.observe(runDiff, if (runDiff) deltaCnt else edgeCnt, ms))

      stats += ViewStat(t, collection.viewNames(t), runDiff, ms, edgeCnt,
                        deltaCnt, state.iterations, state.workRows)
      if (sys.env.contains("REPRO_VERBOSE"))
        Console.err.println(
          f"[exec] ${program.name}%-4s view=$t%3d mode=${if (runDiff) "diff" else "scratch"}%-7s " +
          f"ms=$ms%6d |E|=$edgeCnt%7d |δ|=$deltaCnt%6d iters=${state.iterations}%3d work=${state.workRows}%8d")
      if (keepResults) {
        results += state.finalState.collect()
          .map(r => r.getLong(0) -> r.getDouble(1)).toMap
      }
    }
    CollectionRun(stats.result(), results.result())
  }
}
