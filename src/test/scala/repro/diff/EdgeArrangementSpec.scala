package repro.diff

import org.scalatest.funsuite.AnyFunSuite
import EdgeArrangement.Delta

/** The driver-side edge arrangement: a multiset keyed by eid, read in
  * either direction.
  */
class EdgeArrangementSpec extends AnyFunSuite {

  private def add(eid: Long, src: Long, dst: Long, w: Double = 1.0) = Delta(eid, src, dst, w, 1)
  private def del(eid: Long, src: Long, dst: Long, w: Double = 1.0) = Delta(eid, src, dst, w, -1)

  private def ins(a: EdgeArrangement, v: Long, undirected: Boolean): Seq[(Long, Double)] = {
    val out = Seq.newBuilder[(Long, Double)]
    a.foreachIn(v, undirected)((s, w) => out += (s -> w))
    out.result().sorted
  }

  test("parallel edges stay a multiset and a deletion removes the copy it names") {
    val a = new EdgeArrangement
    a.update(Seq(add(0, 0, 1, 2.0), add(1, 0, 1, 5.0), add(2, 1, 2)))
    assert(a.size == 3)
    assert(ins(a, 1, undirected = false) == Seq(0L -> 2.0, 0L -> 5.0))
    assert(a.outDegree(0, undirected = false) == 2)
    a.update(Seq(del(0, 0, 1, 2.0), add(3, 0, 1, 1.0)))
    assert(a.size == 3)
    assert(ins(a, 1, undirected = false) == Seq(0L -> 1.0, 0L -> 5.0))
  }

  test("undirected reads mirror every edge, a self-loop twice, and count degree over both") {
    val a = new EdgeArrangement
    a.update(Seq(add(0, 0, 1), add(1, 2, 0), add(2, 0, 0)))
    assert(ins(a, 0, undirected = false) == Seq(0L -> 1.0, 2L -> 1.0))
    assert(ins(a, 0, undirected = true) == Seq(0L -> 1.0, 0L -> 1.0, 1L -> 1.0, 2L -> 1.0))
    assert(a.outNbrs(0, undirected = false).toSeq.sorted == Seq(0L, 1L))
    assert(a.outNbrs(0, undirected = true).toSeq.sorted == Seq(0L, 0L, 1L, 2L))
    assert(a.inNbrs(1, undirected = true).toSeq == Seq(0L))
    assert(a.outDegree(0, undirected = false) == 2)
    assert(a.outDegree(0, undirected = true) == 4)
    assert(a.outDegree(7, undirected = true) == 0)
  }

  test("a difference set that deletes an absent edge or re-adds a present one is rejected") {
    val a = new EdgeArrangement
    a.update(Seq(add(0, 0, 1)))
    intercept[IllegalArgumentException](a.update(Seq(del(9, 0, 1))))
    intercept[IllegalArgumentException](a.update(Seq(add(0, 0, 1))))
  }
}
