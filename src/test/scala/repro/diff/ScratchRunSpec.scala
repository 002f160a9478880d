package repro.diff

import repro.{ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.algorithms._
import scala.util.Random

/** Scratch runs (`fromScratch`, the replay from the empty run) must agree
  * with the driver-side reference implementations on random graphs — this
  * pins down the Jacobi semantics of every [[VertexProgram]] before a
  * replay advances a stored run.
  */
class ScratchRunSpec extends ReproSpec {

  private def scratch(prog: VertexProgram, nV: Int, edges: Seq[E]): Engine.RunResult =
    prog.fromScratch(TestGraphs.vertexIds(nV), TestGraphs.arrangement(edges))

  private def runProgram(prog: VertexProgram, nV: Int, edges: Seq[E]): Map[Long, Double] =
    scratch(prog, nV, edges).finalState

  private def assertClose(got: Map[Long, Double], exp: Map[Long, Double]): Unit = {
    assert(got.keySet == exp.keySet, "vertex sets differ")
    got.foreach { case (v, x) =>
      val y = exp(v)
      val ok = (x.isInfinity && y.isInfinity) || math.abs(x - y) < 1e-6
      assert(ok, s"vertex $v: got $x expected $y")
    }
  }

  for (seed <- Seq(1, 2, 3)) {
    val rnd   = new Random(seed)
    val nV    = 40 + rnd.nextInt(20)
    val edges = TestGraphs.randomEdges(rnd, nV, 120)
    val pairs = edges.map(e => (e.src, e.dst))

    test(s"WCC scratch matches union-find (seed=$seed)") {
      assertClose(runProgram(Wcc(), nV, edges),
                  Reference.wcc((0L until nV).toSeq, pairs))
    }
    test(s"BFS scratch matches reference BFS (seed=$seed)") {
      assertClose(runProgram(Bfs(0L), nV, edges),
                  Reference.bfs((0L until nV).toSeq, pairs, 0L))
    }
    test(s"BF scratch matches Bellman-Ford (seed=$seed)") {
      assertClose(runProgram(Sssp(0L), nV, edges),
                  Reference.bellmanFord((0L until nV).toSeq,
                    edges.map(e => (e.src, e.dst, e.w)), 0L))
    }
    test(s"PageRank scratch matches power iteration (seed=$seed)") {
      assertClose(runProgram(PageRankProg(8), nV, edges),
                  Reference.pageRank((0L until nV).toSeq, pairs, 8))
    }
  }

  test("scratch run on an empty edge set leaves every vertex at init") {
    val res = scratch(Bfs(0L), 5, Nil)
    val got = res.finalState
    assert(got(0L) == 0.0)
    (1L to 4L).foreach(v => assert(got(v).isInfinity))
    assert(res.trace.lastIter == 0)
  }

  test("scratch trace replays to the final state") {
    val rnd   = new Random(7)
    val nV    = 30
    val edges = TestGraphs.randomEdges(rnd, nV, 90)
    val prog  = Wcc()
    val res = prog.fromScratch(TestGraphs.vertexIds(nV), TestGraphs.arrangement(edges))
    val replayed = (0L until nV).map(v => v -> res.trace.valueAt(v, res.trace.lastIter)).toMap
    val fin = res.finalState
    assert(replayed == fin)
    assert(res.trace.lastIter == res.iterations - 1) // the last iteration was quiet
  }

  test("a run the iteration cap ends reports Cap, from scratch and differentially") {
    // BFS from 0, capped at 3 iterations; a 7-vertex chain needs 6.
    object CappedBfs extends VertexProgram {
      val name = "BFS-cap3"
      override def maxIterations: Int = 3
      def init(vid: Long): Double = if (vid == 0L) 0.0 else Double.PositiveInfinity
      def msg(value: Double, weight: Double, srcDeg: Long): Double = value + 1.0
      val aggIsMin = true
      def combine(init: Double, agg: Double): Double = math.min(init, agg)
    }
    val chain = (0 until 6).map(i => E(i.toLong, i.toLong, i + 1L, 1.0))
    val view1 = chain.tail :+ E(6L, 0L, 2L, 1.0) // 0→1 replaced by 0→2
    val verts = TestGraphs.vertexIds(7)
    val coll = TestGraphs.collectionFrom("capped", Seq(chain, view1))
    val edges = new EdgeArrangement
    edges.update(coll.delta(0))

    val capped = CappedBfs.fromScratch(verts, edges)
    assert(capped.stop.contains(Engine.Stop.Cap), s"scratch stopped by ${capped.stop}")
    assert(capped.iterations == 3)
    val delta = coll.delta(1)
    edges.update(delta)
    val advanced = CappedBfs.advance(edges, delta, capped)
    assert(advanced.stop.contains(Engine.Stop.Cap), s"replay stopped by ${advanced.stop}")
    val settled = scratch(Bfs(0L), 7, chain)
    assert(settled.stop.contains(Engine.Stop.PastHorizon), s"uncapped scratch stopped by ${settled.stop}")
  }

  test("parallel edges are honored as a multiset (PageRank)") {
    // Two parallel edges 0→1 double 0's contribution and its out-degree.
    val edges = Vector(E(0, 0, 1, 1.0), E(1, 0, 1, 1.0), E(2, 0, 2, 1.0))
    val got = runProgram(PageRankProg(3), 3, edges)
    val exp = Reference.pageRank(Seq(0L, 1L, 2L),
      Seq((0L, 1L), (0L, 1L), (0L, 2L)), 3)
    assert(math.abs(got(1L) - exp(1L)) < 1e-9)
    assert(math.abs(got(2L) - exp(2L)) < 1e-9)
  }
}
