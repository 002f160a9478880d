package repro.diff

/** The arranged trace of a vertex program's run, held on the driver: for
  * every vertex that ever changed, its change-points in ascending iteration
  * order. It is DD's arrangement of the iteration dimension (McSherry et
  * al., "Shared Arrangements", VLDB 2020): a vertex's value at any
  * iteration is one binary search away, so the differential replay reads
  * and rewrites the trace at a cost proportional to the vertices it
  * examines, not to the trace's size.
  *
  * A vertex without a change-point at or before iteration j holds its
  * initial value at j (iteration 0 is implicit). Change-points are indexed
  * by the dense ids of `index`: per vertex an `Int` array of iterations and
  * a `Double` array of values (12 bytes a change-point, plus two array
  * headers and two slots of the outer arrays per vertex). The empty trace
  * has none; a run from scratch is the replay from it.
  */
final class Trace private (val index: VertexIndex, init: Long => Double,
                           iters: Array[Array[Int]], values: Array[Array[Double]]) {

  /** The value of vid `v` at iteration `j`: its latest change-point at or
    * before `j`, else its initial value.
    */
  def valueAt(v: Long, j: Int): Double = {
    val i = index.find(v)
    if (i < 0) init(v) else at(i, j)
  }

  /** [[valueAt]] by dense id. */
  private[diff] def at(v: Int, j: Int): Double = {
    val its = if (v < iters.length) iters(v) else null
    val k = if (its == null) -1 else java.util.Arrays.binarySearch(its, j)
    val last = if (k >= 0) k else -k - 2 // last change-point ≤ j
    if (last < 0) init(index(v)) else values(v)(last)
  }

  /** The iteration of dense id `v`'s last change-point, 0 when it never
    * changed.
    */
  private[diff] def lastChange(v: Int): Int = {
    val its = if (v < iters.length) iters(v) else null
    if (its == null) 0 else its(its.length - 1)
  }

  /** The largest iteration with any change-point (0 for none): the latest
    * of the vertices' last change-points, found once per trace.
    */
  lazy val lastIter: Int = {
    var last = 0
    for (v <- iters.indices) last = math.max(last, lastChange(v))
    last
  }

  /** This trace over `size` vertices, with the entries of the given
    * vertices rewritten: for each `(v, examined, addIters, addValues)`, the
    * change-points of `v` at iterations in `examined` are dropped and the
    * added ones (ascending iterations) are merged in. The cost is
    * proportional to the rewritten vertices' entries, plus one copy of the
    * outer arrays.
    */
  private[diff] def rewrite(size: Int,
                            updates: Iterator[(Int, Int => Boolean, Array[Int], Array[Double])]): Trace = {
    val its = java.util.Arrays.copyOf(iters, size)
    val vs = java.util.Arrays.copyOf(values, size)
    for ((v, examined, addIters, addValues) <- updates) {
      val (mergedIters, mergedValues) =
        if (its(v) == null) (addIters, addValues)
        else {
          val kept = its(v).zip(vs(v)).filterNot(cp => examined(cp._1))
          (kept ++ addIters.zip(addValues)).sortBy(_._1).unzip
        }
      its(v) = if (mergedIters.isEmpty) null else mergedIters
      vs(v) = if (mergedIters.isEmpty) null else mergedValues
    }
    new Trace(index, init, its, vs)
  }
}

object Trace {

  /** The trace without change-points over `index`: every vertex holds
    * `init` at every iteration. Analytics that keep no iteration trace
    * (SCC) pass an `init` of NaN.
    */
  def empty(index: VertexIndex, init: Long => Double): Trace =
    new Trace(index, init, Array.empty, Array.empty)
}
