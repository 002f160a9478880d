package repro.diff

import repro.ReproSpec
import repro.algorithms.{Reference, Sssp}
import repro.graph.GraphGen
import repro.views.ViewCollection
import repro.views.ViewCollection.Delta

/** Table 1 / Figure 3 (§2): Bellman-Ford maintained differentially over
  * three graph versions — (s,w1) cost 2→1, then (s,w2) cost 10→1 — with a
  * large untouched z-component whose computation DD never revisits.
  */
class Table1ExampleSpec extends ReproSpec {

  private val zChain = 50

  private def collection(zChain: Int = zChain) = {
    val g = GraphGen.bellmanFordExample(spark, zChain)
    val v0 = g.edges.select("eid", "src", "dst", "weight").collect().toSeq
      .map(r => Delta(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), 1))
    // G1: change (s,w1) cost 2→1 — a deletion plus an addition, exactly the
    // δE of Table 1. Changed weight ⇒ fresh eid for the new edge instance.
    val v1 = Seq(Delta(0L, 0L, 1L, 2.0, -1), Delta(1000L, 0L, 1L, 1.0, 1))
    // G2: change (s,w2) cost 10→1.
    val v2 = Seq(Delta(1L, 0L, 2L, 10.0, -1), Delta(1001L, 0L, 2L, 1.0, 1))
    (g, ViewCollection.fromExplicitDiffs("bf-example", Seq(v0, v1, v2)))
  }

  test("distances per version match Table 1's Bellman-Ford results") {
    val (g, coll) = collection()
    val verts = g.vertexIds
    val run = CollectionExecutor.run(spark, Sssp(0L), verts, coll,
                                     CollectionExecutor.DiffOnly, keepResults = true)
    val Seq(r0, r1, r2) = run.results
    // w-component: s=0, w1=1, w2=2, w3=3.
    assert(Seq(r0(1L), r0(2L), r0(3L)) == Seq(2.0, 4.0, 6.0))
    assert(Seq(r1(1L), r1(2L), r1(3L)) == Seq(1.0, 3.0, 5.0))
    assert(Seq(r2(1L), r2(2L), r2(3L)) == Seq(1.0, 1.0, 3.0))
    // z-chain distances never change across versions.
    for (k <- 0 until zChain) {
      val z = 4L + k
      assert(r0(z) == 1.0 + k)
      assert(r1(z) == r0(z))
      assert(r2(z) == r0(z))
    }
  }

  test("differential maintenance never touches the z-component (sharing)") {
    val (g, coll) = collection()
    val run = CollectionExecutor.run(spark, Sssp(0L), g.vertexIds, coll,
                                     CollectionExecutor.DiffOnly, keepResults = false)
    // Scratch on view 0 touches every vertex each iteration; the two
    // differential advances must touch only the w-component's footprint —
    // the paper's "~30 updates despite billions of z edges" observation.
    val scratchWork = run.stats(0).workRows
    assert(scratchWork > zChain.toLong) // sanity: scratch saw the z chain
    run.stats.drop(1).foreach { s =>
      assert(s.ranDiff)
      assert(s.workRows <= 25,
             s"view ${s.t} touched ${s.workRows} vertex-iterations; expected a handful")
    }
  }

  test("on a 300-vertex z-chain the replay stops on the trace query while the chain's trace runs on") {
    val longChain = 300
    val (g, coll) = collection(longChain)
    val prog = Sssp(0L)
    val verts = g.vertexIds.collect().map(_.getLong(0))
    val vids = (0L until 4L + longChain).toSeq
    val arranged = new EdgeArrangement
    def advanceEdges(t: Int) = { val d = coll.delta(t); arranged.update(d); d }
    advanceEdges(0)
    var run = prog.fromScratch(verts, arranged)
    assert(run.trace.lastIter == longChain) // the stored trace changes until the chain's end
    for (t <- 1 to 2) {
      run = prog.advance(arranged, advanceEdges(t), run)
      assert(run.stop.contains(Engine.Stop.TraceQuiet), s"view $t stopped by ${run.stop}")
      assert(run.iterStats.size == run.iterations)
      assert(run.workRows <= 25,
             s"view $t touched ${run.workRows} vertex-iterations; expected a handful")
      val got = run.finalState
      val edges = coll.viewEdges(t).select("src", "dst", "weight").collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
      assert(got == Reference.bellmanFord(vids, edges, 0L), s"view $t")
    }
  }
}
