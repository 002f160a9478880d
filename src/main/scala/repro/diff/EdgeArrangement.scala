package repro.diff

import scala.collection.mutable

/** The current view's edges, arranged on the driver: per vertex its
  * in-edges and out-edges, kept up to date by applying each view's
  * difference set (driver rows, from `ViewCollection.deltas`). It is DD's
  * shared arrangement of the edge collection
  * (McSherry et al., "Shared Arrangements", VLDB 2020) as a single Timely
  * worker holds it: every analytic of every view reads it, and advancing to
  * the next view costs O(|δ|), not O(|E|).
  *
  * Edges are keyed by `eid`, so parallel edges stay a multiset and a
  * deletion removes exactly the copy it names. Reads take the program's
  * direction: an undirected program sees every edge mirrored (a self-loop
  * twice), and a vertex's out-degree is counted over the edges it sees.
  * Nothing is stored per program. The arrangement takes O(|E|) driver
  * memory.
  */
final class EdgeArrangement {
  import EdgeArrangement._

  private val byEid = mutable.LongMap.empty[Delta]
  private val ins   = mutable.LongMap.empty[mutable.ArrayBuffer[Delta]]
  private val outs  = mutable.LongMap.empty[mutable.ArrayBuffer[Delta]]

  /** |E_t| counted as a multiset of directed edges. */
  def size: Long = byEid.size.toLong

  /** Apply a difference set: deletions (`diff < 0`) first, then additions.
    * Deleting an absent eid or adding a present one is an error.
    */
  def update(delta: Iterable[Delta]): Unit = {
    delta.iterator.filter(_.diff < 0).foreach { d =>
      val e = byEid.remove(d.eid).getOrElse(
        throw new IllegalArgumentException(s"deletion of edge ${d.eid}, which the view lacks"))
      unlink(ins, e.dst, e.eid)
      unlink(outs, e.src, e.eid)
    }
    delta.iterator.filter(_.diff > 0).foreach { d =>
      require(!byEid.contains(d.eid), s"addition of edge ${d.eid}, which the view has")
      byEid(d.eid) = d
      ins.getOrElseUpdate(d.dst, mutable.ArrayBuffer.empty) += d
      outs.getOrElseUpdate(d.src, mutable.ArrayBuffer.empty) += d
    }
  }

  /** Calls `f(src, weight)` for every in-edge of `v` (mirrored out-edges
    * too when `undirected`).
    */
  def foreachIn(v: Long, undirected: Boolean)(f: (Long, Double) => Unit): Unit = {
    ins.get(v).foreach(_.foreach(e => f(e.src, e.weight)))
    if (undirected) outs.get(v).foreach(_.foreach(e => f(e.dst, e.weight)))
  }

  /** Sources of `v`'s in-edges, with multiplicity. */
  def inNbrs(v: Long, undirected: Boolean): Iterator[Long] =
    ends(ins, v)(_.src) ++ (if (undirected) ends(outs, v)(_.dst) else Iterator.empty)

  /** Targets of `v`'s out-edges, with multiplicity. */
  def outNbrs(v: Long, undirected: Boolean): Iterator[Long] =
    ends(outs, v)(_.dst) ++ (if (undirected) ends(ins, v)(_.src) else Iterator.empty)

  /** `v`'s out-degree over the edges the program sees. */
  def outDegree(v: Long, undirected: Boolean): Int =
    outs.get(v).fold(0)(_.size) + (if (undirected) ins.get(v).fold(0)(_.size) else 0)
}

object EdgeArrangement {

  /** One row of a difference set: `diff` is +1 for an addition, −1 for a
    * deletion. An arranged edge is its addition row.
    */
  final case class Delta(eid: Long, src: Long, dst: Long, weight: Double, diff: Int)

  private def unlink(lists: mutable.LongMap[mutable.ArrayBuffer[Delta]], v: Long, eid: Long): Unit = {
    val es = lists(v)
    val k = es.indexWhere(_.eid == eid)
    es(k) = es.last // order within a list carries no meaning
    es.dropRightInPlace(1)
    if (es.isEmpty) lists.remove(v)
  }

  private def ends(lists: mutable.LongMap[mutable.ArrayBuffer[Delta]], v: Long)
                  (end: Delta => Long): Iterator[Long] =
    lists.get(v).fold(Iterator.empty[Long])(_.iterator.map(end))
}
