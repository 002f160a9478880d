package repro.views

import org.scalatest.Assertion
import org.scalatest.funsuite.AnyFunSuite
import ViewCollection.Delta

/** Explicit collections are packed into EBM columns when they are built:
  * one row per addition, and a stream that does not follow the views is
  * rejected then, not when a run reaches the offending view.
  */
class ExplicitCollectionSpec extends AnyFunSuite {

  private def add(eid: Long, src: Long = 0L, dst: Long = 1L, w: Double = 1.0) = Delta(eid, src, dst, w, 1)
  private def del(eid: Long) = Delta(eid, 0L, 0L, 0.0, -1)

  /** Building `sets` fails, naming `position` and `eid`. */
  private def rejected(position: Int, eid: Long)(sets: Seq[Delta]*): Assertion = {
    val e = intercept[IllegalArgumentException](ViewCollection.fromExplicitDiffs("bad", sets))
    assert(e.getMessage.contains(s"position $position ") && e.getMessage.contains(s"edge $eid,"),
           e.getMessage)
  }

  test("a stream that deletes an absent eid or re-adds one fails at build") {
    rejected(1, 9)(Seq(add(0)), Seq(del(9)), Seq(add(1)))
    rejected(2, 0)(Seq(add(0), add(1)), Seq(del(1)), Seq(add(0)))
    rejected(0, 3)(Seq(add(3), del(3))) // deletions apply first
  }

  test("an eid added twice in one position fails at build") {
    rejected(1, 5)(Seq(add(0)), Seq(add(5), add(5, 2, 3)))
  }

  test("an explicit stream packs one row per addition, in stream order") {
    val coll = ViewCollection.fromExplicitDiffs("packed", Seq(
      Seq(add(0, 0, 1, 2.0), add(1, 1, 2)), Seq(del(0), add(2, 2, 0)),
      Seq(add(0, 5, 6, 3.0), del(2)), Nil))
    val c = coll.columns
    // Row 3 is eid 0 again, with other endpoints and weight.
    assert((0 until c.size).map(i => (c.eid(i), c.src(i), c.dst(i), c.weight(i))) ==
             Seq((0L, 0L, 1L, 2.0), (1L, 1L, 2L, 1.0), (2L, 2L, 0L, 1.0), (0L, 5L, 6L, 3.0)))
    // Each row's bits are the one run from its addition to its deletion.
    assert(c.pattern.toSeq.map(c.bits(_)) == Seq(Seq(0x1L), Seq(0xfL), Seq(0x2L), Seq(0xcL)))
    assert(coll.cct.patterns == 4 && coll.order == (0 until 4) && coll.numViews == 4)
    assert(coll.totalDiffs == 6)
    def slice(t: Int) = { val s = coll.delta(t); (0 until s.size).map(k => (s.row(k), s.diff(k))) }
    assert((0 until 4).map(slice) ==
             Seq(Seq(0 -> 1, 1 -> 1), Seq(0 -> -1, 2 -> 1), Seq(2 -> -1, 3 -> 1), Nil))
  }
}
