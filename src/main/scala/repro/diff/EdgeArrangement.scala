package repro.diff

import scala.collection.mutable

/** Dense `Int` ids for vertex ids, in order of first sight. Every
  * per-vertex structure on the driver is an array indexed by them. Ids are
  * never reused, so an index only grows.
  */
final class VertexIndex {
  private val ids = mutable.LongMap.empty[Int]
  private var vids = new Array[Long](16)

  def size: Int = ids.size

  /** The vid of dense id `i`. */
  def apply(i: Int): Long = vids(i)

  /** `v`'s dense id, −1 when it has none. */
  def find(v: Long): Int = ids.getOrElse(v, -1)

  /** `v`'s dense id, assigned on first sight. */
  def add(v: Long): Int = ids.getOrElseUpdate(v, {
    if (size == vids.length) vids = java.util.Arrays.copyOf(vids, 2 * size)
    vids(size) = v
    size
  })
}

/** The current view's edges, arranged on the driver: per vertex its
  * in-edges and out-edges, kept up to date by applying each view's
  * difference set (driver rows, from `ViewCollection.deltas`). It is DD's
  * shared arrangement of the edge collection
  * (McSherry et al., "Shared Arrangements", VLDB 2020) as a single Timely
  * worker holds it: every analytic of every view reads it, and advancing to
  * the next view costs O(|δ|), not O(|E|).
  *
  * Vertices are the dense ids of [[index]]: `universe` first, then any
  * other endpoint when it first appears. A vertex's list in each direction
  * holds the far ends' ids and the weights in two primitive arrays, 12
  * bytes an edge a direction (up to twice that with spare capacity); an
  * eid map holds each edge's addition row. Parallel edges stay a multiset,
  * and a deletion removes one copy of the edge it names. Reads take the
  * program's direction: an undirected program sees every edge mirrored (a
  * self-loop twice), and a vertex's out-degree is counted over the edges
  * it sees. Nothing is stored per program.
  */
final class EdgeArrangement(universe: Array[Long] = Array.emptyLongArray) {
  import EdgeArrangement._

  val index = new VertexIndex
  universe.foreach(index.add)

  private val byEid = mutable.LongMap.empty[Delta]
  private val ins   = new Lists
  private val outs  = new Lists

  /** |E_t| counted as a multiset of directed edges. */
  def size: Long = byEid.size.toLong

  /** The arranged edges, as their addition rows. */
  def edges: Iterator[Delta] = byEid.valuesIterator

  /** Apply a difference set: deletions (`diff < 0`) first, then additions.
    * Deleting an absent eid or adding a present one is an error.
    */
  def update(delta: Iterable[Delta]): Unit = {
    delta.iterator.filter(_.diff < 0).foreach { d =>
      val e = byEid.remove(d.eid).getOrElse(
        throw new IllegalArgumentException(s"deletion of edge ${d.eid}, which the view lacks"))
      val (s, t) = (index.find(e.src), index.find(e.dst))
      ins(t).remove(s, e.weight)
      outs(s).remove(t, e.weight)
    }
    delta.iterator.filter(_.diff > 0).foreach { d =>
      require(!byEid.contains(d.eid), s"addition of edge ${d.eid}, which the view has")
      byEid(d.eid) = d
      val (s, t) = (index.add(d.src), index.add(d.dst))
      ins.at(t).add(s, d.weight)
      outs.at(s).add(t, d.weight)
    }
  }

  // Reads by dense id, the in- (out-) lists as stored; the derived reads
  // mirror them when `undirected`.
  private[repro] def inAdj(v: Int): Adj = ins(v)
  private[repro] def outAdj(v: Int): Adj = outs(v)

  private[repro] def degree(v: Int, undirected: Boolean): Int =
    outs(v).size + (if (undirected) ins(v).size else 0)

  private[repro] def eachIn(v: Int, undirected: Boolean)(f: Int => Unit): Unit = {
    ins(v).foreach(f)
    if (undirected) outs(v).foreach(f)
  }
  private[repro] def eachOut(v: Int, undirected: Boolean)(f: Int => Unit): Unit = {
    outs(v).foreach(f)
    if (undirected) ins(v).foreach(f)
  }
}

object EdgeArrangement {

  /** One row of a difference set: `diff` is +1 for an addition, −1 for a
    * deletion. An arranged edge is its addition row.
    */
  final case class Delta(eid: Long, src: Long, dst: Long, weight: Double, diff: Int)

  /** One vertex's edges in one direction: the far ends' dense ids and the
    * weights, in the first `size` slots of two parallel arrays.
    */
  private[repro] final class Adj {
    var size = 0
    var nbr = new Array[Int](2)
    var weight = new Array[Double](2)

    def foreach(f: Int => Unit): Unit = {
      var k = 0
      while (k < size) { f(nbr(k)); k += 1 }
    }

    private[EdgeArrangement] def add(u: Int, w: Double): Unit = {
      if (size == nbr.length) {
        nbr = java.util.Arrays.copyOf(nbr, 2 * size)
        weight = java.util.Arrays.copyOf(weight, 2 * size)
      }
      nbr(size) = u
      weight(size) = w
      size += 1
    }

    /** Remove a slot holding (`u`, `w`). Parallel copies of an edge look
      * the same to every read, so any one will do; the last slot fills the
      * gap, as order within a list carries no meaning.
      */
    private[EdgeArrangement] def remove(u: Int, w: Double): Unit = {
      var k = 0
      while (nbr(k) != u || java.lang.Double.compare(weight(k), w) != 0) k += 1
      size -= 1
      nbr(k) = nbr(size)
      weight(k) = weight(size)
    }
  }

  private val NoEdges = new Adj

  /** Every vertex's list in one direction, by dense id. */
  private final class Lists {
    private var of = new Array[Adj](0)

    def apply(v: Int): Adj = if (v < of.length && of(v) != null) of(v) else NoEdges

    /** `v`'s list, made on first use. */
    def at(v: Int): Adj = {
      if (v >= of.length) of = java.util.Arrays.copyOf(of, math.max(v + 1, 2 * of.length))
      if (of(v) == null) of(v) = new Adj
      of(v)
    }
  }
}
