package repro.diff

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{ReproSpec, TestGraphs}
import repro.algorithms.{Bfs, Reference, Wcc}
import scala.util.Random

/** End-to-end executor behavior: all three modes agree on results; the
  * adaptive mode actually makes mode decisions; GVDL-built collections run
  * through the same path.
  */
class CollectionExecutorSpec extends ReproSpec {

  private def mkColl(seed: Int, nV: Int, views: Int, add: Int, del: Int) = {
    val rnd = new Random(seed)
    val init = TestGraphs.randomEdges(rnd, nV, nV * 3)
    val lists = TestGraphs.perturbationViews(rnd, nV, init, views, add, del)
    (lists, TestGraphs.collectionFrom(s"exec$seed", lists))
  }

  test("diff-only, scratch, and adaptive all produce identical results") {
    val (lists, coll) = mkColl(61, nV = 30, views = 3, add = 10, del = 10)
    val verts = TestGraphs.vertices(spark, 30)
    val byMode = Seq(CollectionExecutor.DiffOnly, CollectionExecutor.ScratchOnly,
                     CollectionExecutor.Adaptive())
      .map(m => CollectionExecutor.run(spark, Wcc(), verts, coll, m, keepResults = true))
    for (t <- lists.indices) {
      val exp = Reference.wcc((0L until 30).toSeq, lists(t).map(e => (e.src, e.dst)))
      byMode.foreach(r => assert(r.results(t) == exp, s"view $t"))
    }
  }

  test("scratch-only never runs differentially; diff-only always does after view 0") {
    val (_, coll) = mkColl(62, nV = 25, views = 3, add = 5, del = 5)
    val verts = TestGraphs.vertices(spark, 25)
    val s = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.ScratchOnly)
    assert(s.stats.forall(!_.ranDiff))
    val d = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.DiffOnly)
    assert(!d.stats.head.ranDiff && d.stats.drop(1).forall(_.ranDiff))
  }

  test("adaptive bootstraps scratch-then-diff and then decides per view") {
    val (_, coll) = mkColl(63, nV = 25, views = 4, add = 5, del = 5)
    val verts = TestGraphs.vertices(spark, 25)
    val a = CollectionExecutor.run(spark, Bfs(0L), verts, coll, CollectionExecutor.Adaptive())
    assert(!a.stats(0).ranDiff)
    assert(a.stats(1).ranDiff)
    assert(a.stats.size == 4)
  }

  /** `body`'s value and the number of Spark jobs it starts on this thread. */
  private def withJobCount[A](body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val counter = new JobCounter
    sc.addSparkListener(counter)
    try {
      sc.setLocalProperty(JobCounter.Key, JobCounter.Counted)
      val value = try body finally sc.setLocalProperty(JobCounter.Key, null)
      // The listener bus is asynchronous and FIFO: once the marker job's
      // start is delivered, so is every job `body` started.
      sc.setLocalProperty(JobCounter.Key, JobCounter.Marker)
      try sc.parallelize(Seq(1), 1).count()
      finally sc.setLocalProperty(JobCounter.Key, null)
      val deadline = System.nanoTime() + 60L * 1000000000L
      while (!counter.flushed && System.nanoTime() < deadline) Thread.sleep(20)
      assert(counter.flushed, "the listener bus never delivered the marker job")
      (value, counter.jobs)
    } finally sc.removeSparkListener(counter)
  }

  test("a GVDL build runs one Spark job on a fresh graph and none after") {
    // The one job collects the graph's resolved rows; later builds read them.
    val g = repro.graph.GraphGen.callGraph(spark, nV = 60, nE = 300)
    val gvdl = (1 to 34).map(d => s"[D$d: duration <= $d]")
      .mkString("create view collection chain on Calls ", ", ", "")
    val (first, firstJobs) = withJobCount(repro.views.ViewCollection.fromGvdl(g, gvdl))
    assert(first.numViews == 34)
    assert(firstJobs == 1, s"$firstJobs Spark jobs for a fresh graph's first 34-view build")
    for (strategy <- Seq(repro.views.ViewCollection.GivenOrder,
                         repro.views.ViewCollection.GraphsurgeOrder)) {
      val (coll, jobs) = withJobCount(repro.views.ViewCollection.fromGvdl(g, gvdl, strategy))
      assert(coll.numViews == 34)
      assert(jobs == 0, s"$jobs Spark jobs for a later 34-view build ($strategy)")
    }
  }

  test("a rejected non-Boolean view starts no Spark job") {
    val g = repro.graph.GraphGen.callGraph(spark, nV = 60, nE = 300)
    val (_, jobs) = withJobCount(intercept[IllegalArgumentException](
      repro.views.ViewCollection.fromGvdl(g,
        "create view collection c on Calls [a: duration <= 5], [v: duration]")))
    assert(jobs == 0, s"$jobs Spark jobs before the rejection")
    // The graph's rows were not collected either: the next build collects them.
    val (_, next) = withJobCount(repro.views.ViewCollection.fromGvdl(g,
      "create view collection c on Calls [a: duration <= 5]"))
    assert(next == 1, s"$next Spark jobs for the first accepted build")
  }

  test("a collection run's Spark jobs do not grow with its number of views") {
    // A GVDL collection: its stream is expanded from the local EBM frame
    // the build collected, so a run reads it without a job.
    val g = repro.graph.GraphGen.callGraph(spark, nV = 60, nE = 300)
    val coll = repro.views.ViewCollection.fromGvdl(g,
      """create view collection jobs on Calls
         [D4: duration≤4], [D8: duration≤8], [D12: duration≤12],
         [D16: duration≤16], [D25: duration≤25], [D34: duration≤34]""")
    assert(coll.numViews == 6)
    val verts = g.vertexIds
    val (_, jobs) =
      withJobCount(CollectionExecutor.run(spark, Wcc(), verts, coll, CollectionExecutor.DiffOnly))
    // The vertex ids.
    assert(jobs == 1, s"$jobs Spark jobs for 6 views")
  }

  test("a GVDL-defined collection (inclusion chain) runs end to end") {
    val g = repro.graph.GraphGen.callGraph(spark, nV = 60, nE = 300)
    val coll = repro.views.ViewCollection.fromGvdl(g,
      """create view collection call-analysis on Calls
         [D8: duration≤8], [D16: duration≤16], [D25: duration≤25], [D34: duration≤34]""")
    assert(coll.numViews == 4)
    val run = CollectionExecutor.run(spark, Wcc(), g.vertexIds, coll,
                                     CollectionExecutor.DiffOnly, keepResults = true)
    // Check the last view against the reference over the full graph slice.
    val edges = g.resolved.where(org.apache.spark.sql.functions.col("duration") <= 34)
      .select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    val verts = g.nodes.collect().map(_.getLong(0)).toSeq
    assert(run.results(3) == Reference.wcc(verts, edges.toSeq))
    // Inclusion chain ⇒ additions only after view 0.
    assert(coll.totalDiffs ==
      g.resolved.where(org.apache.spark.sql.functions.col("duration") <= 34).count())
  }
}

/** Counts the Spark jobs started under the local property `Key = Counted`,
  * and notes when a job tagged `Marker` starts.
  */
private final class JobCounter extends SparkListener {
  @volatile var jobs = 0
  @volatile var flushed = false

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(JobCounter.Key))) match {
      case Some(JobCounter.Counted) => jobs += 1
      case Some(JobCounter.Marker)  => flushed = true
      case _                        => ()
    }
}

private object JobCounter {
  val Key = "repro.test.jobCounter"
  val Counted = "counted"
  val Marker = "marker"
}
