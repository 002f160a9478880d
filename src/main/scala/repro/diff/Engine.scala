package repro.diff

import org.apache.spark.sql.DataFrame

/** Shared plumbing: the record every [[Analytic]] run returns, and the
  * checkpoint of frames read several times.
  */
object Engine {

  /** Materialize a frame into the block manager and cut its lineage:
    * Spark's own eager local checkpoint. A frame read several times (a
    * bench graph by every pass or cell) is computed once. A collection's
    * EBM does not come here: its build collects it as driver columns. No
    * frame checkpointed here comes from an iterated or self-joined plan,
    * so the plan statistics the checkpoint inherits from its origin stay
    * bounded. Not `persist`: the CacheManager would keep every plan until
    * `unpersist`, while a checkpoint's blocks go with its frame.
    */
  def ckpt(df: DataFrame): DataFrame = df.localCheckpoint(eager = true)

  /** Result of running a program on one view.
    *
    * @param values     the converged state by the dense ids of
    *                   `trace.index` (ids added to the index after the run
    *                   have none)
    * @param trace      the arranged per-iteration change-points — the DD
    *                   difference representation of the iteration sequence
    *                   (iteration-0 inits are implicit: they are the
    *                   program's `init`); `trace.lastIter` is the horizon
    * @param iterations number of iterations actually executed (for SCC,
    *                   1: one DFS)
    * @param workRows   Σ over executed iterations of recomputed-vertex
    *                   counts (for SCC, the vertices plus the edges its DFS
    *                   visits) —
    *                   the "computation footprint touched", used by tests
    *                   to prove sharing happens
    * @param iterStats  per-iteration records of a vertex program's replay,
    *                   from scratch or not (empty for SCC)
    * @param stop       why the run ended: `Stop.Cap` when the iteration
    *                   cap cut the replay short, else the replay's
    *                   stop-rule branch; None for SCC (which has no cap)
    *                   or when nothing ran (empty deltas)
    */
  final case class RunResult(values: Array[Double], trace: Trace,
                             iterations: Int, workRows: Long,
                             iterStats: Seq[IterStat] = Nil, stop: Option[Stop] = None) {
    def index: VertexIndex = trace.index

    /** The converged state as `vid → value`, built on each call. */
    def finalState: Map[Long, Double] = values.indices.iterator.map(v => index(v) -> values(v)).toMap

    /** [[values]] copied onto the ids of `to`: `absent(vid)` for a vertex
      * this run has no value for.
      */
    def valuesOn(to: VertexIndex, absent: Long => Double): Array[Double] = {
      val out = new Array[Double](to.size)
      for (v <- out.indices) {
        val u = if (to eq index) v else index.find(to(v))
        out(v) = if (u >= 0 && u < values.length) values(u) else absent(to(v))
      }
      out
    }
  }

  /** One replay iteration i: |A_i| (examined), |Diff_i| (diverged from the
    * stored run), change-points written to the new trace, and wall ms.
    */
  final case class IterStat(iter: Int, examined: Int, diverged: Int, changePoints: Int,
                            millis: Long)

  /** Why a run ended: a branch of the replay's stop rule, or the cap. */
  sealed trait Stop
  object Stop {
    /** Quiet at an iteration past the stored trace's horizon; a run from
      * scratch, the replay from the empty run, ends here when it goes
      * quiet.
      */
    case object PastHorizon extends Stop
    /** Quiet, and the stored trace is frozen on the divergence region. */
    case object TraceQuiet extends Stop
    /** The iteration cap (`fixedIterations`, else `maxIterations`). */
    case object Cap extends Stop
  }
}
