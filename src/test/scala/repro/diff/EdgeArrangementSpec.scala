package repro.diff

import org.scalatest.funsuite.AnyFunSuite
import repro.views.ViewCollection
import repro.views.ViewCollection.Delta

/** The driver-side edge arrangement: a multiset advanced by slices of a
  * collection's rows, read in either direction.
  */
class EdgeArrangementSpec extends AnyFunSuite {

  private def add(eid: Long, src: Long, dst: Long, w: Double = 1.0) = Delta(eid, src, dst, w, 1)
  private def del(eid: Long) = Delta(eid, 0L, 0L, 0.0, -1)

  /** An explicit collection of `sets`, and an arrangement fed its
    * positions one at a time by `advance(t)`.
    */
  private def stream(universe: Array[Long], sets: Seq[Delta]*): (EdgeArrangement, Int => Unit) = {
    val coll = ViewCollection.fromExplicitDiffs("arranged", sets)
    val a = new EdgeArrangement(universe)
    (a, t => a.update(coll.delta(t)))
  }
  private def stream(sets: Seq[Delta]*): (EdgeArrangement, Int => Unit) =
    stream(Array.emptyLongArray, sets: _*)

  // Reads by vid, through the arrangement's dense index; a vid without an
  // id has no edges.

  private def ins(a: EdgeArrangement, v: Long, undirected: Boolean): Seq[(Long, Double)] = {
    val i = a.index.find(v)
    val lists = if (i < 0) Nil else if (undirected) Seq(a.inAdj(i), a.outAdj(i)) else Seq(a.inAdj(i))
    lists.flatMap(l => (0 until l.size).map(k => a.index(l.nbr(k)) -> l.weight(k))).sorted
  }

  private def nbrs(a: EdgeArrangement, v: Long)(each: (Int, Int => Unit) => Unit): Seq[Long] = {
    val out = Seq.newBuilder[Long]
    if (a.index.find(v) >= 0) each(a.index.find(v), u => out += a.index(u))
    out.result()
  }
  private def outNbrs(a: EdgeArrangement, v: Long, undirected: Boolean): Seq[Long] =
    nbrs(a, v)(a.eachOut(_, undirected)(_))
  private def inNbrs(a: EdgeArrangement, v: Long, undirected: Boolean): Seq[Long] =
    nbrs(a, v)(a.eachIn(_, undirected)(_))

  private def outDegree(a: EdgeArrangement, v: Long, undirected: Boolean): Int =
    if (a.index.find(v) < 0) 0 else a.degree(a.index.find(v), undirected)

  /** Every arranged edge as (src, dst, weight), read from the out-lists. */
  private def arranged(a: EdgeArrangement): Seq[(Long, Long, Double)] =
    (0 until a.index.size).flatMap { v =>
      val l = a.outAdj(v)
      (0 until l.size).map(k => (a.index(v), a.index(l.nbr(k)), l.weight(k)))
    }.sorted

  test("parallel edges stay a multiset and a deletion removes the copy it names") {
    val (a, advance) = stream(Seq(add(0, 0, 1, 2.0), add(1, 0, 1, 5.0), add(2, 1, 2)),
                              Seq(del(0), add(3, 0, 1, 1.0)))
    advance(0)
    assert(a.size == 3)
    assert(ins(a, 1, undirected = false) == Seq(0L -> 2.0, 0L -> 5.0))
    assert(outDegree(a, 0, undirected = false) == 2)
    advance(1)
    assert(a.size == 3)
    assert(ins(a, 1, undirected = false) == Seq(0L -> 1.0, 0L -> 5.0))
  }

  test("undirected reads mirror every edge, a self-loop twice, and count degree over both") {
    val (a, advance) = stream(Seq(add(0, 0, 1), add(1, 2, 0), add(2, 0, 0)))
    advance(0)
    assert(ins(a, 0, undirected = false) == Seq(0L -> 1.0, 2L -> 1.0))
    assert(ins(a, 0, undirected = true) == Seq(0L -> 1.0, 0L -> 1.0, 1L -> 1.0, 2L -> 1.0))
    assert(outNbrs(a, 0, undirected = false).sorted == Seq(0L, 1L))
    assert(outNbrs(a, 0, undirected = true).sorted == Seq(0L, 0L, 1L, 2L))
    assert(inNbrs(a, 1, undirected = true) == Seq(0L))
    assert(outDegree(a, 0, undirected = false) == 2)
    assert(outDegree(a, 0, undirected = true) == 4)
    assert(outDegree(a, 7, undirected = true) == 0)
  }

  test("a deletion from the middle of a vertex's list keeps the rest of both lists") {
    val (a, advance) = stream((0 until 5).map(k => add(k, 0, 10L + k, k.toDouble)) :+ add(5, 3, 12, 7.0),
                              Seq(del(2)))
    advance(0)
    advance(1)
    assert(a.size == 5)
    assert(outNbrs(a, 0, undirected = false).sorted == Seq(10L, 11L, 13L, 14L))
    assert(ins(a, 12, undirected = false) == Seq(3L -> 7.0))
    assert(ins(a, 13, undirected = false) == Seq(0L -> 3.0))
    assert(outDegree(a, 0, undirected = false) == 4)
    assert(arranged(a) == Seq((0L, 10L, 0.0), (0L, 11L, 1.0), (0L, 13L, 3.0), (0L, 14L, 4.0),
                              (3L, 12L, 7.0)))
  }

  test("a deleted eid can be added again, with other endpoints") {
    val (a, advance) = stream(Seq(add(0, 0, 1), add(1, 1, 2)), Seq(del(0)), Seq(add(0, 2, 0, 4.0)),
                              Seq(del(0), add(0, 0, 1, 3.0))) // deleted and re-added in one set
    (0 to 2).foreach(advance)
    assert(a.size == 2)
    assert(ins(a, 1, undirected = false).isEmpty)
    assert(ins(a, 0, undirected = false) == Seq(2L -> 4.0))
    advance(3)
    assert(ins(a, 1, undirected = false) == Seq(0L -> 3.0))
    assert(ins(a, 0, undirected = false).isEmpty)
  }

  test("an endpoint outside the seeded universe gets the next dense id") {
    val (a, advance) = stream(Array(5L, 6L, 7L), Seq(add(0, 5, 42), add(1, 42, 6)))
    assert((0 until 3).map(a.index(_)) == Seq(5L, 6L, 7L))
    advance(0)
    assert(a.index.size == 4)
    assert(a.index.find(42L) == 3 && a.index(3) == 42L)
    assert(a.index.find(8L) == -1)
    assert(outNbrs(a, 42, undirected = false) == Seq(6L))
    assert(ins(a, 42, undirected = false) == Seq(5L -> 1.0))
    assert(ins(a, 8, undirected = false).isEmpty)
  }
}
