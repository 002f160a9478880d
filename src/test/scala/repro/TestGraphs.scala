package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random
import repro.diff.EdgeArrangement
import repro.graph.PropertyGraph
import repro.views.ViewCollection

/** Driver-side random graphs and perturbation collections for tests.
  *
  * Everything lives on the driver so the reference implementations see
  * exactly the same edge lists as the Spark engine.
  */
object TestGraphs {

  final case class E(eid: Long, src: Long, dst: Long, w: Double)

  /** Random edge list without self-loops; parallel edges possible (the
    * engine and references both treat edges as a multiset keyed by eid).
    */
  def randomEdges(rnd: Random, nV: Int, nE: Int, eidBase: Long = 0L): Vector[E] =
    Vector.tabulate(nE) { i =>
      val s = rnd.nextInt(nV)
      var d = rnd.nextInt(nV)
      while (d == s) d = rnd.nextInt(nV)
      E(eidBase + i, s.toLong, d.toLong, 1.0 + rnd.nextInt(9))
    }

  def edgesDF(spark: SparkSession, edges: Seq[E]): DataFrame = {
    import spark.implicits._
    edges.map(e => (e.eid, e.src, e.dst, e.w)).toDF("eid", "src", "dst", "weight")
  }

  def graph(spark: SparkSession, nV: Int, edges: Seq[E]): PropertyGraph = {
    import spark.implicits._
    PropertyGraph((0 until nV).map(_.toLong).toDF("id"), edgesDF(spark, edges))
  }

  /** Build the per-view edge lists of a perturbation collection: view 0 is
    * `init`; each later view removes `delPerView` random existing edges and
    * adds `addPerView` fresh ones (fresh eids).
    */
  def perturbationViews(rnd: Random, nV: Int, init: Vector[E], views: Int,
                        addPerView: Int, delPerView: Int): Vector[Vector[E]] = {
    var cur = init
    var nextEid = init.map(_.eid).maxOption.getOrElse(-1L) + 1
    val out = Vector.newBuilder[Vector[E]]
    out += cur
    for (_ <- 1 until views) {
      val dels = rnd.shuffle(cur).take(math.min(delPerView, math.max(0, cur.size - 1)))
      val delSet = dels.map(_.eid).toSet
      val adds = randomEdges(rnd, nV, addPerView, nextEid)
      nextEid += addPerView
      cur = cur.filterNot(e => delSet(e.eid)) ++ adds
      out += cur
    }
    out.result()
  }

  /** Difference stream from explicit per-view edge lists (keyed by eid). */
  def collectionFrom(name: String, views: Seq[Seq[E]]): ViewCollection = {
    def delta(e: E, diff: Int) = ViewCollection.Delta(e.eid, e.src, e.dst, e.w, diff)
    val perView = views.zipWithIndex.map { case (v, t) =>
      val prev = if (t == 0) Map.empty[Long, E] else views(t - 1).map(e => e.eid -> e).toMap
      val cur  = v.map(e => e.eid -> e).toMap
      val adds = (cur.keySet -- prev.keySet).toSeq.map(cur).map(delta(_, 1))
      val dels = (prev.keySet -- cur.keySet).toSeq.map(prev).map(delta(_, -1))
      adds ++ dels
    }
    ViewCollection.fromExplicitDiffs(name, perView)
  }

  /** An edge list arranged as the collection loop arranges a view: from
    * the slice of a one-view collection, added in list order.
    */
  def arrangement(edges: Seq[E]): EdgeArrangement = {
    val a = new EdgeArrangement
    a.update(ViewCollection.fromExplicitDiffs("arranged",
      Seq(edges.map(e => ViewCollection.Delta(e.eid, e.src, e.dst, e.w, 1)))).delta(0))
    a
  }

  /** Vertex universe 0..nV-1 on the driver. */
  def vertexIds(nV: Int): Array[Long] = Array.tabulate(nV)(_.toLong)

  /** Vertex-universe frame 0..nV-1. */
  def vertices(spark: SparkSession, nV: Int): DataFrame = {
    import spark.implicits._
    (0 until nV).map(_.toLong).toDF("vid")
  }
}
