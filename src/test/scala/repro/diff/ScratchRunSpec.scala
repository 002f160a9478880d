package repro.diff

import repro.{ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.algorithms._
import scala.util.Random

/** Scratch runs must agree with the driver-side reference implementations
  * on random graphs — this pins down the Jacobi semantics of every
  * [[VertexProgram]] before any differential machinery is tested.
  */
class ScratchRunSpec extends ReproSpec {

  private def runProgram(prog: VertexProgram, nV: Int, edges: Seq[E]): Map[Long, Double] = {
    val verts = TestGraphs.vertices(spark, nV)
    val prepared = Engine.prepare(prog, TestGraphs.edgesDF(spark, edges))
    val res = ScratchRun.run(spark, prog, verts, prepared)
    res.finalState.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
  }

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
    val got = runProgram(Bfs(0L), 5, Nil)
    assert(got(0L) == 0.0)
    (1L to 4L).foreach(v => assert(got(v).isInfinity))
  }

  test("scratch trace replays to the final state") {
    val rnd   = new Random(7)
    val nV    = 30
    val edges = TestGraphs.randomEdges(rnd, nV, 90)
    val prog  = Wcc()
    val prepared = Engine.prepare(prog, TestGraphs.edgesDF(spark, edges))
    val res = ScratchRun.run(spark, prog, TestGraphs.vertices(spark, nV), prepared)
    val replayed = (0L until nV).map(v => v -> res.trace.valueAt(v, res.lastIter)).toMap
    val fin = res.finalState.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    assert(replayed == fin)
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
