package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.GraphGen
import repro.views.ViewCollection
import repro.views.ViewCollection.Delta

/** Shared plumbing for the table harnesses. */
object BenchUtil {

  /** Bench scale knob: 1.0 = the defaults documented in DESIGN.md §6.
    * Override with REPRO_BENCH_SCALE.
    */
  def scale: Double = sys.env.get("REPRO_BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  def configure(spark: SparkSession): Unit = {
    spark.conf.set("spark.sql.shuffle.partitions", "4")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
  }

  /** First vertex with an outgoing edge — the paper's BFS/MPSP source. */
  def firstSource(edges: DataFrame): Long =
    edges.agg(min(col("src"))).collect()(0).getLong(0)

  /** Build a §5-style artificial perturbation collection on the driver.
    * View 0 is `edges`, collected once. Each later view v removes the `delN`
    * current edges that come first in ascending `GraphGen.hash(eid, seed + v)`
    * and adds `addN` fresh edges: the i-th has eid `1000000·v + seed·10⁸ + i`
    * and endpoints drawn over `nV` vertices by `GraphGen.huOf(i, seed + 31v)`
    * and `huOf(i, seed + 37v)`; self-loops are dropped. The draws are
    * Spark's `xxhash64`, so the collection does not depend on how `edges`
    * is partitioned. The stream is packed into driver columns
    * ([[ViewCollection.fromExplicitDiffs]]); `spark` is not read and stays
    * in the signature for existing callers.
    */
  def perturbationCollection(spark: SparkSession, name: String, edges: DataFrame,
                             nV: Long, views: Int, addN: Int, delN: Int,
                             seed: Long): ViewCollection = {
    var current = edges
      .select(col("eid").cast("long"), col("src").cast("long"), col("dst").cast("long"),
              coalesce(col("weight").cast("double"), lit(1.0)))
      .collect().toVector
      .map(r => Delta(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), 1))
    val perView = Vector.newBuilder[Seq[Delta]]
    perView += current
    for (v <- 1 until views) {
      val dels = current.map(e => (GraphGen.hash(e.eid, seed + v), e))
        .sortBy(_._1).take(delN).map(_._2)
      val adds = (0L until addN).map { i =>
        Delta(1000000L * v + seed * 100000000L + i,
              (GraphGen.huOf(i, seed + 31 * v) * nV).toLong,
              (GraphGen.huOf(i, seed + 37 * v) * nV).toLong, 1.0, 1)
      }.filter(e => e.src != e.dst)
      perView += adds ++ dels.map(_.copy(diff = -1))
      val gone = dels.map(_.eid).toSet
      current = current.filterNot(e => gone(e.eid)) ++ adds
    }
    ViewCollection.fromExplicitDiffs(name, perView.result())
  }

  def fmtMs(ms: Long): String = s"${ms}ms"
}
