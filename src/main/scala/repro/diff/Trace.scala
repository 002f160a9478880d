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
  * initial value at j (iteration 0 is implicit). The trace is arranged
  * eagerly from its `(vid, iter, value)` change-points; both the scratch
  * run and the replay build it on the driver, so it takes O(change-points)
  * driver memory.
  */
final class Trace private (byVid: Map[Long, Trace.Changes], init: Long => Double) {
  import Trace._

  /** The value of `v` at iteration `j`: its latest change-point at or
    * before `j`, else its initial value.
    */
  def valueAt(v: Long, j: Int): Double = byVid.get(v) match {
    case None => init(v)
    case Some(c) =>
      val k = java.util.Arrays.binarySearch(c.iters, j)
      val at = if (k >= 0) k else -k - 2 // last change-point ≤ j
      if (at < 0) init(v) else c.values(at)
  }

  /** The iteration of `v`'s last change-point, 0 when it never changed. */
  def lastChange(v: Long): Int = byVid.get(v).fold(0)(_.iters.last)

  /** The largest iteration with any change-point (0 for none): the latest
    * of the vertices' last change-points, found once per trace.
    */
  lazy val lastIter: Int = byVid.valuesIterator.map(_.iters.last).maxOption.getOrElse(0)

  /** This trace with the entries of the given vertices rewritten: for each
    * `(v, examined, added)`, the change-points of `v` at iterations in
    * `examined` are dropped and `added` (ascending iterations) is merged
    * in. The cost is proportional to the rewritten vertices' entries.
    */
  def rewrite(updates: Iterable[(Long, Int => Boolean, Seq[(Int, Double)])]): Trace = {
    var next = byVid
    for ((v, examined, added) <- updates) {
      val kept = next.get(v).fold(Seq.empty[(Int, Double)]) { c =>
        c.iters.toSeq.zip(c.values).filterNot(cp => examined(cp._1))
      }
      val merged = if (kept.isEmpty) added else (kept ++ added).sortBy(_._1)
      next =
        if (merged.isEmpty) next - v
        else next.updated(v, Changes(merged.map(_._1).toArray, merged.map(_._2).toArray))
    }
    new Trace(next, init)
  }
}

object Trace {

  /** One vertex's change-points: `iters` ascending, `values` aligned. */
  private final case class Changes(iters: Array[Int], values: Array[Double])

  /** Arrange `(vid, iter, value)` change-points, each vertex's by
    * ascending iteration.
    */
  def apply(changePoints: Iterable[(Long, Int, Double)], init: Long => Double): Trace =
    new Trace(
      changePoints.groupBy(_._1).map { case (v, cps) =>
        val sorted = cps.toArray.sortBy(_._2)
        v -> Changes(sorted.map(_._2), sorted.map(_._3))
      },
      init)

  /** A trace without change-points and without initial values, for
    * analytics that keep no iteration trace (SCC): `valueAt` is NaN.
    */
  val empty: Trace = Trace(Nil, _ => Double.NaN)
}
