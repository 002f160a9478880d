package repro.diff

import repro.views.DiffStream
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
  * in-edges and out-edges, advanced by each view's difference set, a slice
  * of the collection's EBM rows (`ViewCollection.delta`). It is DD's shared
  * arrangement (McSherry et al., "Shared Arrangements", VLDB 2020) as one
  * Timely worker holds it: every analytic of every view reads it, and a
  * view's advance costs O(|δ|). Vertices are the dense ids of [[index]]:
  * `universe` first, then other endpoints as they appear. A vertex's list
  * in each direction holds the far ends' ids and the weights in two
  * primitive arrays, 12 bytes an edge a direction (up to twice that with
  * spare capacity), and nothing else is kept per edge: a deletion reads its
  * edge from the columns and removes one copy, so parallel edges stay a
  * multiset. An undirected program sees every edge mirrored (a self-loop
  * twice) and out-degrees over what it sees; nothing is stored per program.
  */
final class EdgeArrangement(universe: Array[Long] = Array.emptyLongArray) {
  import EdgeArrangement._

  val index = new VertexIndex
  universe.foreach(index.add)

  private val ins   = new Lists
  private val outs  = new Lists
  private var edges = 0L

  /** |E_t| counted as a multiset of directed edges. */
  def size: Long = edges

  /** Apply a difference set, deletions first; a deletion names an arranged edge. */
  def update(delta: DiffStream.Slice): Unit = {
    for (k <- 0 until delta.size if delta.diff(k) < 0) {
      val (s, t) = (index.find(delta.src(k)), index.find(delta.dst(k)))
      ins(t).remove(s, delta.weight(k))
      outs(s).remove(t, delta.weight(k))
      edges -= 1
    }
    for (k <- 0 until delta.size if delta.diff(k) > 0) {
      val (s, t) = (index.add(delta.src(k)), index.add(delta.dst(k)))
      ins.at(t).add(s, delta.weight(k))
      outs.at(s).add(t, delta.weight(k))
      edges += 1
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
