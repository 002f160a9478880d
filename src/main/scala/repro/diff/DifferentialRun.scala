package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import Engine._
import VertexProgram.neq

/** Differentially maintain a program's run when advancing a collection to
  * the next view (§3.2.2) — the Spark analog of DD "fixing the computation
  * footprint".
  *
  * Given the previous view's trace (per-iteration change-points), the new
  * view's edges E_t, and the difference set δE, the replay recomputes, at
  * every iteration, only the vertices whose inputs can differ from the
  * stored run:
  *
  *   - `W` — vertices with a changed in-edge (dst of δE), plus, for
  *     degree-dependent programs, all out-neighbors of sources with changed
  *     degree. δE carries DD timestamp ⟨t, 0⟩, below every iteration, so W
  *     is affected at *every* iteration.
  *   - `N_out(Diff_{i-1})` — downstream of vertices whose value at the
  *     previous iteration diverged from the stored trace.
  *
  * Invariant (induction over iterations): any vertex not in the examined
  * set has exactly its stored value, so `Diff_i` doubles as the complete
  * override set of iteration i.
  *
  * Stop rule: stop after iteration i iff (1) no examined vertex changed
  * from i−1 to i, and (2) the stored trace has no change-point at any
  * iteration ≥ i on R = A′ ∪ N_in(A′), where A′ = W ∪ N_out(Diff_i) ∪
  * Diff_i is the set iteration i+1 would examine. It is sound because every
  * in-neighbor of A′ lies in R and so holds the same value at i−1 and i —
  * examined ones by (1), the others because they carry stored values, which
  * (2) freezes. Each vertex of A′ therefore recomputes its value of
  * iteration i, R stays frozen, and every vertex outside A′ has unchanged
  * inputs and follows the stored run; by induction every later iteration is
  * the stored run overridden by `Diff_i`, and so is the final state. (2)
  * needs no Spark job once i > lastIter; otherwise it is one trace query.
  * Because the query is scoped to the divergence region rather than the
  * whole trace, replay cost tracks the locality of the change, not the
  * trace length (the paper's z_jk sharing argument).
  *
  * Affected sets are broadcast, so per-iteration cost scales with the size
  * of the computation-footprint difference, not |V| — this is the
  * computation sharing the paper's Table 2 / Figure 6 measure.
  */
object DifferentialRun {

  def run(spark: SparkSession, program: VertexProgram, vertices: DataFrame,
          preparedEdges: DataFrame, preparedDelta: DataFrame,
          prev: RunResult): RunResult = {

    if (preparedDelta.isEmpty) return prev.copy(iterations = 0, workRows = 0L)

    // ---- perpetually-affected set W ------------------------------------
    val dstOfDelta = preparedDelta.select(col("dst").as("vid"))
    val w = ckpt(
      (if (!program.degreeDependent) dstOfDelta
       else {
         val srcs = preparedDelta.select(col("src").as("__s")).distinct()
         dstOfDelta.unionByName(
           preparedEdges
             .join(broadcast(srcs), preparedEdges("src") === col("__s"))
             .select(col("dst").as("vid")))
       }).distinct())

    def edgesInto(s: DataFrame): DataFrame =
      preparedEdges
        .join(broadcast(s.select(col("vid").as("__av"))),
              preparedEdges("dst") === col("__av"))
        .drop("__av")

    // Examined set of the iteration after one that diverged on `diff`: W,
    // downstream of the divergence, and the divergence itself — a diverged
    // vertex whose inputs match the stored run again must be *re-examined*
    // so its revert to the stored value lands in the new trace as a
    // change-point.
    def examinedAfter(diff: DataFrame): DataFrame =
      w.unionByName(
          preparedEdges
            .join(broadcast(diff.select(col("vid").as("__dv"))),
                  preparedEdges("src") === col("__dv"))
            .select(col("dst").as("vid")))
        .unionByName(diff.select("vid"))
        .distinct()

    // Frames reused on every "quiet" iteration (no divergence yet): the
    // examined set is exactly W, so its in-edge slice and source-id set are
    // loop-invariant and worth caching once per view.
    val wEdgesIn = ckpt(edgesInto(w))
    val wSrcIds = ckpt(
      if (program.aggIsMin) wEdgesIn.select(col("src").as("vid"))
      else wEdgesIn.select(col("src").as("vid")).distinct())

    // ---- iteration replay ----------------------------------------------
    var diffPrev    = emptyState(spark)
    var diffPrevCnt = 0L
    val affectedLogParts = Seq.newBuilder[DataFrame]
    val changeParts      = Seq.newBuilder[DataFrame]
    var i = 0
    var work = 0L
    var done = false
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (!done && i < cap) {
      i += 1
      val iterT0 = System.nanoTime()
      val quiet = diffPrevCnt == 0
      val affected = if (quiet) w else ckpt(examinedAfter(diffPrev))
      affectedLogParts += affected.select(col("vid"), lit(i).as("iter"))

      // Recompute affected vertices from their full current in-neighborhood
      // at states of iteration i-1 (stored ⊕ previous-iteration overrides).
      val edgesIn = if (quiet) wEdgesIn else edgesInto(affected)
      // min-aggregation is idempotent, so duplicate source lookups are
      // harmless and the dedup shuffle can be skipped; sum (PageRank)
      // must deduplicate or messages would double.
      val srcIds =
        if (quiet) wSrcIds
        else if (program.aggIsMin) fresh(edgesIn.select(col("src").as("vid")))
        else fresh(edgesIn.select(col("src").as("vid")).distinct())
      val srcStored = storedPairAt(program, prev.trace, srcIds, i - 1)
        .select(col("vid"), col("__sc").as("value"))
      val srcVals = (
        if (quiet) srcStored
        else srcStored
          .join(broadcast(diffPrev.select(col("vid"), col("value").as("__ov"))),
                Seq("vid"), "left")
          .select(col("vid"), coalesce(col("__ov"), col("value")).as("value"))
        ).select(col("vid").as("__sv"), col("value").as("__val"))
      val msgs = edgesIn
        .join(broadcast(srcVals), edgesIn("src") === col("__sv"))
        .select(col("dst"),
                program.msgExpr(col("__val"), col("weight"), col("srcdeg")).as("__m"))
      val agg = msgs.groupBy("dst").agg(program.aggColumn(col("__m")).as("__agg"))
      val newCur = affected
        .join(broadcast(agg), affected("vid") === agg("dst"), "left")
        .select(col("vid"),
                program.applyExpr(program.initExpr(col("vid")).cast("double"),
                                  col("__agg")).cast("double").as("value"))

      val storedBoth = storedPairAt(program, prev.trace, affected, i)
      // |joined| == |affected| (left joins over the affected key set), so
      // the materialization count doubles as the work metric.
      val base = newCur.join(broadcast(storedBoth), Seq("vid"))
      val (joined, jCnt) = ckptCounted(
        if (quiet)
          base.select(col("vid"), col("value"), col("__sc"), col("__sp").as("__np"))
        else
          base
            .join(broadcast(diffPrev.select(col("vid"), col("value").as("__op"))),
                  Seq("vid"), "left")
            .select(col("vid"), col("value"), col("__sc"),
                    coalesce(col("__op"), col("__sp")).as("__np")))
      work += jCnt

      // diffCur and the change-points are cheap filters over the cached
      // `joined`; one aggregation job yields both cardinalities.
      val diffCur = joined.where(neq(col("value"), col("__sc"))).select("vid", "value")
      val cntRow = joined.agg(
        sum(neq(col("value"), col("__sc")).cast("long")).as("d"),
        sum(neq(col("value"), col("__np")).cast("long")).as("c")).collect()(0)
      val dCnt  = if (cntRow.isNullAt(0)) 0L else cntRow.getLong(0)
      val cpCnt = if (cntRow.isNullAt(1)) 0L else cntRow.getLong(1)
      changeParts += joined.where(neq(col("value"), col("__np")))
        .select(col("vid"), lit(i).as("iter"), col("value"))

      diffPrev = diffCur
      diffPrevCnt = dCnt
      if (sys.env.contains("REPRO_VERBOSE2"))
        Console.err.println(f"[diff-iter] i=$i%3d quiet=$quiet affected=$jCnt%6d d=$dCnt c=$cpCnt ms=${(System.nanoTime() - iterT0) / 1000000}%5d")

      // The stop rule (see the scaladoc for why it is sound).
      done = cpCnt == 0 && (i > prev.lastIter || {
        val (next, nextIn) =
          if (dCnt == 0) (w, wEdgesIn)
          else { val a = ckpt(examinedAfter(diffCur)); (a, edgesInto(a)) }
        val region = fresh(next.select("vid")
          .unionByName(nextIn.select(col("src").as("vid"))).distinct())
        prev.trace.where(col("iter") >= i).join(broadcast(region), Seq("vid")).isEmpty
      })
    }

    // ---- assemble result ------------------------------------------------
    val newFinal =
      if (diffPrevCnt == 0) prev.finalState
      else ckpt(
        fresh(prev.finalState)
          .join(broadcast(diffPrev.select(col("vid"), col("value").as("__fv"))),
                Seq("vid"), "left")
          .select(col("vid"), coalesce(col("__fv"), col("value")).as("value")))

    val affectedLog = ckpt(affectedLogParts.result().reduce(_ unionByName _))
    val changes = changeParts.result().reduce(_ unionByName _)
    val newTrace = ckpt(
      fresh(prev.trace)
        .join(affectedLog, Seq("vid", "iter"), "left_anti")
        .unionByName(changes))
    val lastRow = newTrace.agg(max(col("iter")).as("m")).collect()(0)
    val newLast = if (lastRow.isNullAt(0)) 0 else lastRow.getInt(0)

    RunResult(newFinal, newTrace, newLast, i, work)
  }
}
