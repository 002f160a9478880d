package repro.diff

import repro.{Oracle, ReproSpec, TestGraphs}
import repro.algorithms._
import scala.util.Random

/** The arranged trace a differential replay leaves behind must be the trace
  * a scratch run of the same view records: the same value for every vertex
  * at every iteration, not only the same final state. A later view replays
  * against it, so an error at an intermediate iteration would surface only
  * views later. A scratch run is itself the replay from the empty run, so
  * both traces are also checked, iteration by iteration, against a plain
  * synchronous Jacobi oracle ([[repro.Oracle.jacobi]]).
  */
class TraceSpec extends ReproSpec {

  private def assertSameRun(diff: Engine.RunResult, scratch: Engine.RunResult, nV: Int,
                            ctx: String): Unit = {
    val horizon = math.max(diff.trace.lastIter, scratch.trace.lastIter) + 1
    for (v <- 0L until nV; j <- 0 to horizon) {
      val (x, y) = (diff.trace.valueAt(v, j), scratch.trace.valueAt(v, j))
      assert(x == y || math.abs(x - y) < 1e-9, s"$ctx: vertex $v at iteration $j: $x vs $y")
    }
  }

  /** `run`'s trace equals the oracle's states at every iteration, beyond
    * the last of either included.
    */
  private def assertJacobi(prog: VertexProgram, run: Engine.RunResult, nV: Int,
                           edges: Seq[TestGraphs.E], ctx: String): Unit = {
    val states = Oracle.jacobi(prog, 0L until nV, edges.map(e => (e.src, e.dst, e.w)))
    for (v <- 0L until nV; j <- 0 to math.max(run.trace.lastIter, states.size) + 1) {
      val (x, y) = (run.trace.valueAt(v, j), states(math.min(j, states.size - 1))(v))
      assert(x == y || math.abs(x - y) < 1e-9, s"$ctx: vertex $v at iteration $j: $x vs oracle $y")
    }
  }

  for (prog <- Seq(Wcc(), Bfs(0L), Sssp(0L), PageRankProg(6)); seed <- Seq(11, 12, 31)) {
    test(s"${prog.name} diff trace == scratch trace at every iteration (seed=$seed)") {
      val rnd = new Random(seed)
      val nV = 35
      val init = TestGraphs.randomEdges(rnd, nV, 100)
      val views = TestGraphs.perturbationViews(rnd, nV, init, 3, 8, 8)
      val coll = TestGraphs.collectionFrom(s"trace$seed", views)
      val verts = TestGraphs.vertexIds(nV)
      val edges = new EdgeArrangement
      edges.update(coll.delta(0))

      var run = prog.fromScratch(verts, edges)
      assertJacobi(prog, run, nV, views(0), "view 0 scratch")
      for (t <- 1 until views.size) {
        val delta = coll.delta(t)
        edges.update(delta)
        run = prog.advance(edges, delta, run)
        val scratch = prog.fromScratch(verts, TestGraphs.arrangement(views(t)))
        assertSameRun(run, scratch, nV, s"view $t")
        assertJacobi(prog, scratch, nV, views(t), s"view $t scratch")
        assertJacobi(prog, run, nV, views(t), s"view $t replay")
      }
    }
  }

  test("neq over ±∞, NaN and the 1e-9 boundary") {
    val inf = Double.PositiveInfinity
    val nan = Double.NaN
    // (a, b, changed)
    val table = Seq(
      (inf, inf, false), (-inf, -inf, false), (inf, -inf, true), (inf, 1.0, true),
      (1.0, -inf, true), (nan, nan, false), (nan, 1.0, true), (1.0, nan, true),
      (nan, inf, true), (0.0, 0.0, false), (-0.0, 0.0, false), (1.0, 1.0 + 5e-10, false),
      (0.0, 1e-9, false), (0.0, 1.5e-9, true), (0.0, -1.5e-9, true), (2.0, 1.0, true))
    table.foreach { case (a, b, changed) =>
      assert(VertexProgram.neq(a, b) == changed, s"neq($a, $b)")
    }
  }
}
