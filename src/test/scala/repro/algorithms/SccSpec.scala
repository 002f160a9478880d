package repro.algorithms

import repro.{ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.diff.CollectionExecutor
import scala.util.Random

/** SCC: coloring-from-scratch and condensation-incremental vs Tarjan. */
class SccSpec extends ReproSpec {

  private def sccSpark(nV: Int, edges: Seq[E]): Map[Long, Long] =
    Scc.scratch(spark, TestGraphs.vertices(spark, nV), TestGraphs.edgesDF(spark, edges))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  private def sccRef(nV: Int, edges: Seq[E]): Map[Long, Long] =
    Reference.scc((0L until nV).toSeq, edges.map(e => (e.src, e.dst)))

  /** The collection loop returns every result as a double. */
  private def asIds(ref: Map[Long, Long]): Map[Long, Double] =
    ref.map { case (v, c) => v -> c.toDouble }

  test("explicit example: two cycles bridged by a DAG edge") {
    // 0→1→2→0 and 3→4→3, bridge 2→3, tail 4→5.
    val edges = Seq((0L,1L),(1L,2L),(2L,0L),(3L,4L),(4L,3L),(2L,3L),(4L,5L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val got = sccSpark(6, edges)
    assert(got == Map(0L->0L, 1L->0L, 2L->0L, 3L->3L, 4L->3L, 5L->5L))
  }

  for (seed <- Seq(1, 2, 3, 4)) {
    test(s"coloring SCC matches Tarjan on a random digraph (seed=$seed)") {
      val rnd = new Random(seed)
      val nV = 30 + rnd.nextInt(20)
      val edges = TestGraphs.randomEdges(rnd, nV, nV * 2)
      assert(sccSpark(nV, edges) == sccRef(nV, edges))
    }
  }

  test("coloring SCC on a pure DAG yields singletons (trim path)") {
    val rnd = new Random(9)
    // dst < src always → DAG.
    val edges = Vector.tabulate(60) { i =>
      val s = 1 + rnd.nextInt(29)
      E(i, s.toLong, rnd.nextInt(s).toLong, 1.0)
    }
    val got = sccSpark(30, edges)
    assert(got == (0L until 30).map(v => v -> v).toMap)
  }

  test("incremental: additions that merge two SCCs") {
    val base = Seq((0L,1L),(1L,0L),(2L,3L),(3L,2L),(1L,2L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val prev = Scc.scratch(spark, TestGraphs.vertices(spark, 4), TestGraphs.edgesDF(spark, base))
    val added = base :+ E(100, 3L, 0L, 1.0) // closes the big cycle
    val got = Scc.incremental(spark, TestGraphs.edgesDF(spark, added),
                              TestGraphs.edgesDF(spark, Nil), prev)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(got == Map(0L->0L, 1L->0L, 2L->0L, 3L->0L))
  }

  test("incremental: deletion that breaks an SCC") {
    val base = Seq((0L,1L),(1L,2L),(2L,0L),(2L,3L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val prev = Scc.scratch(spark, TestGraphs.vertices(spark, 4), TestGraphs.edgesDF(spark, base))
    val remaining = base.filterNot(e => e.src == 1L && e.dst == 2L)
    val got = Scc.incremental(spark, TestGraphs.edgesDF(spark, remaining),
                              TestGraphs.edgesDF(spark, base.filter(e => e.src == 1L && e.dst == 2L)),
                              prev)
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(got == sccRef(4, remaining))
  }

  for (seed <- Seq(21, 22)) {
    test(s"incremental matches Tarjan across a perturbation collection (seed=$seed)") {
      val rnd = new Random(seed)
      val nV = 25
      val init = TestGraphs.randomEdges(rnd, nV, 60)
      val views = TestGraphs.perturbationViews(rnd, nV, init, 4, 10, 10)
      val coll = TestGraphs.collectionFrom(spark, s"scc$seed", views)
      val run = CollectionExecutor.run(spark, Scc, TestGraphs.vertices(spark, nV),
        coll, CollectionExecutor.DiffOnly, keepResults = true)
      assert(run.stats.head.ranDiff === false)
      run.stats.drop(1).foreach(s => assert(s.ranDiff))
      for (t <- views.indices)
        assert(run.results(t) == asIds(sccRef(nV, views(t))), s"view $t")
    }
  }

  test("scratch and incremental agree through the scratch executor too") {
    val rnd = new Random(33)
    val nV = 25
    val init = TestGraphs.randomEdges(rnd, nV, 60)
    val views = TestGraphs.perturbationViews(rnd, nV, init, 3, 8, 8)
    val coll = TestGraphs.collectionFrom(spark, "sccS", views)
    val run = CollectionExecutor.run(spark, Scc, TestGraphs.vertices(spark, nV),
      coll, CollectionExecutor.ScratchOnly, keepResults = true)
    for (t <- views.indices)
      assert(run.results(t) == asIds(sccRef(nV, views(t))), s"view $t")
  }
}
