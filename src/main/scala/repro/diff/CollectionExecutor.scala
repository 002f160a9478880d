package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.views.ViewCollection
import Engine._

/** Analytics Computation Executor for view collections (§3.2.2 + §5).
  *
  * Iterates over the collection's ordered views and runs the analytic on
  * each view either differentially (advancing the previous view's result)
  * or from scratch, according to the execution mode. Vertex programs and
  * SCC both run through this one loop. Adaptive mode delegates the choice
  * to [[SplittingOptimizer]]; a scratch run replaces the stored trace,
  * which is exactly a collection split.
  *
  * The loop reads each view's δ once, a slice of the collection's EBM rows
  * ([[ViewCollection.delta]]), and advances one driver [[EdgeArrangement]]
  * of E_t by it: O(|δ|) edge maintenance per view. A run issues one Spark
  * job, for the vertex ids, however many views it has; reading slices and
  * every analytic, SCC included, issue none.
  */
object CollectionExecutor {

  sealed trait Mode
  /** Bootstrap view 0 from scratch, everything else differentially. */
  case object DiffOnly extends Mode
  /** Every view from scratch (still sharing across iterations). */
  case object ScratchOnly extends Mode
  /** §5 adaptive splitting, deciding per batch of ℓ views. */
  final case class Adaptive(batch: Int = 1) extends Mode

  /** Per-view execution record.
    *
    * @param millis         the analytic's run time, whole milliseconds
    * @param viewEdges      |E_t| as a multiset of directed edges
    * @param maintainMillis edge maintenance: applying δ to the arrangement
    *                       (view 0's includes the vertex index and, on a
    *                       collection's first run, grouping its rows)
    * @param stop           why the view's run ended (see [[Engine.Stop]])
    * @param nanos          the analytic's run time, nanoseconds
    */
  final case class ViewStat(t: Int, viewName: String, ranDiff: Boolean,
                            millis: Long, viewEdges: Long, deltaEdges: Long,
                            iterations: Int, workRows: Long,
                            maintainMillis: Long = 0L, stop: Option[Stop] = None,
                            nanos: Long = 0L)

  /** Result: per-view stats and, if requested via `keepResults`, the final
    * per-vertex state of each view as vid → value maps (SCC ids come back
    * as doubles, exact below 2^53), built only then.
    */
  final case class CollectionRun(stats: Seq[ViewStat],
                                 results: Seq[Map[Long, Double]]) {
    /** Σ over views of run time plus edge maintenance. */
    def totalMillis: Long = stats.map(s => s.millis + s.maintainMillis).sum
  }

  def run(spark: SparkSession, program: Analytic, vertices: DataFrame,
          collection: ViewCollection, mode: Mode,
          keepResults: Boolean = false): CollectionRun = {

    val optimizer = mode match {
      case Adaptive(b) => Some(new SplittingOptimizer(b))
      case _           => None
    }

    // `Dataset.rdd` is planned once per frame, so a frame passed to every
    // run skips Catalyst after its first.
    val vid = vertices.schema.fieldIndex("vid")
    val verts = vertices.rdd.map(_.getLong(vid)).collect()
    val start = System.nanoTime()
    val edges = new EdgeArrangement(verts)
    var state: RunResult = null
    val stats = Seq.newBuilder[ViewStat]
    val results = Seq.newBuilder[Map[Long, Double]]

    for (t <- 0 until collection.numViews) {
      val m0 = if (t == 0) start else System.nanoTime()
      val delta = collection.delta(t)
      edges.update(delta)
      val maintainMs = (System.nanoTime() - m0) / 1000000

      val runDiff = state != null && (mode match {
        case DiffOnly    => true
        case ScratchOnly => false
        case Adaptive(_) => optimizer.get.decide(t, edges.size, delta.size)
      })

      val t0 = System.nanoTime()
      state =
        if (runDiff) program.advance(edges, delta, state)
        else program.fromScratch(verts, edges)
      val ns = System.nanoTime() - t0
      optimizer.foreach(_.observe(runDiff, if (runDiff) delta.size.toLong else edges.size, ns))

      stats += ViewStat(t, collection.viewNames(t), runDiff, ns / 1000000, edges.size, delta.size,
                        state.iterations, state.workRows, maintainMs, state.stop, ns)
      if (sys.env.contains("REPRO_VERBOSE"))
        Console.err.println(
          f"[exec] ${program.name}%-4s view=$t%3d mode=${if (runDiff) "diff" else "scratch"}%-7s " +
          f"us=${ns / 1000}%8d maint=$maintainMs%5d |E|=${edges.size}%7d |dC|=${delta.size}%6d " +
          f"iters=${state.iterations}%3d work=${state.workRows}%8d")
      if (keepResults) results += state.finalState
    }
    CollectionRun(stats.result(), results.result())
  }
}
