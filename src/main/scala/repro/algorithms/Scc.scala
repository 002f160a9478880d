package repro.algorithms

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.diff.{Analytic, EdgeArrangement, Trace}
import repro.diff.EdgeArrangement.Delta
import repro.diff.Engine.RunResult

/** Strongly connected components.
  *
  * Scratch mode implements the doubly-iterative coloring algorithm the
  * paper uses (Orzan [27]): per round, (1) trim vertices with no in- or
  * out-edges in the active subgraph (their SCCs are singletons), (2)
  * propagate the maximum reaching vertex id forward to a fixpoint
  * ("coloring"), (3) propagate backward reachability to each color's root
  * within its color class, and (4) extract each root's SCC; repeat on the
  * remainder.
  *
  * Differential mode is condensation-based incremental maintenance
  * (DESIGN.md documents this substitution for DD's nested-iteration
  * sharing): SCCs of the previous view that lost no internal edge are
  * still strongly connected (edge additions never break an SCC and
  * deletions of non-internal edges don't either), so they contract to
  * super-nodes; broken SCCs expand to singletons; coloring then runs on
  * the much smaller quotient graph. Cost tracks the locality of the
  * difference set, degrading toward scratch as diffs grow — the same
  * qualitative trade-off the paper's splitting optimizer exploits.
  *
  * SCC ids are canonicalized to the minimum member vid so results are
  * directly comparable with the Tarjan reference. As an [[Analytic]] it runs
  * through [[repro.diff.CollectionExecutor]], with the ids as `value`, on a
  * frame of the collection loop's edge arrangement.
  */
object Scc extends Analytic {

  val name = "SCC"

  private val SingletonOffset = 1L << 40

  /** Coloring SCC from scratch. Returns `vid, scc` (canonical ids). */
  def scratch(spark: SparkSession, vertices: DataFrame, edges: DataFrame): DataFrame = {
    var active = vertices.select("vid").transform(repro.diff.Engine.ckpt)
    var aEdges = edges.select("src", "dst").where(col("src") =!= col("dst"))
      .distinct().transform(repro.diff.Engine.ckpt)
    val parts = Seq.newBuilder[DataFrame]
    var activeCnt = active.count()

    while (activeCnt > 0) {
      // ---- trim: no in-edges or no out-edges → singleton SCC ----
      var trimming = true
      while (trimming && activeCnt > 0) {
        val hasIn  = aEdges.select(col("dst").as("vid")).distinct()
        val hasOut = aEdges.select(col("src").as("vid")).distinct()
        val keep = active.join(hasIn, Seq("vid"), "left_semi")
          .join(hasOut, Seq("vid"), "left_semi").transform(repro.diff.Engine.ckpt)
        val keepCnt = keep.count()
        if (keepCnt == activeCnt) trimming = false
        else {
          parts += active.join(keep, Seq("vid"), "left_anti")
            .select(col("vid"), col("vid").as("scc"))
          active = keep
          activeCnt = keepCnt
          aEdges = aEdges
            .join(active.select(col("vid").as("__k1")), col("src") === col("__k1"), "left_semi")
            .join(active.select(col("vid").as("__k2")), col("dst") === col("__k2"), "left_semi")
            .transform(repro.diff.Engine.ckpt)
        }
      }
      if (activeCnt == 0) return finish(spark, parts.result())

      // ---- forward coloring: color(v) = max vid reaching v ----
      var color = active.select(col("vid"), col("vid").cast("long").as("color"))
        .transform(repro.diff.Engine.ckpt)
      var stable = false
      while (!stable) {
        val msgs = aEdges
          .join(color.select(col("vid").as("__sv"), col("color").as("__sc")),
                col("src") === col("__sv"))
          .select(col("dst"), col("__sc"))
        val agg = msgs.groupBy("dst").agg(max(col("__sc")).as("__m"))
        val next = active
          .join(agg, active("vid") === agg("dst"), "left")
          .select(col("vid"), greatest(col("vid"), coalesce(col("__m"), col("vid"))).as("color"))
          .transform(repro.diff.Engine.ckpt)
        val changed = next.as("n").join(color.as("c"), Seq("vid"))
          .where(col("n.color") =!= col("c.color")).count()
        color = next
        stable = changed == 0
      }

      // ---- backward: does v reach its color root within its class? ----
      val sameColor = aEdges
        .join(color.select(col("vid").as("__s"), col("color").as("__cs")), col("src") === col("__s"))
        .join(color.select(col("vid").as("__d"), col("color").as("__cd")), col("dst") === col("__d"))
        .where(col("__cs") === col("__cd"))
        .select(col("src"), col("dst"))
        .transform(repro.diff.Engine.ckpt)
      val base = color.select(col("vid"),
        when(col("color") === col("vid"), 1).otherwise(0).as("reach"))
      var reach = base.transform(repro.diff.Engine.ckpt)
      stable = false
      while (!stable) {
        // reach flows backward: v reaches the root if some out-neighbor does.
        val msgs = sameColor
          .join(reach.select(col("vid").as("__dv"), col("reach").as("__dr")),
                col("dst") === col("__dv"))
          .select(col("src").as("vid"), col("__dr"))
        val agg = msgs.groupBy("vid").agg(max(col("__dr")).as("__m"))
        val next = base.as("b")
          .join(agg.withColumnRenamed("vid", "__av"), col("b.vid") === col("__av"), "left")
          .select(col("b.vid").as("vid"),
                  greatest(col("b.reach"), coalesce(col("__m"), lit(0))).as("reach"))
          .transform(repro.diff.Engine.ckpt)
        val changed = next.as("n").join(reach.as("r"), Seq("vid"))
          .where(col("n.reach") =!= col("r.reach")).count()
        reach = next
        stable = changed == 0
      }

      val members = color
        .join(reach.where(col("reach") === 1).select("vid"), Seq("vid"), "left_semi")
        .select(col("vid"), col("color").as("scc"))
        .transform(repro.diff.Engine.ckpt)
      parts += members
      active = active.join(members.select("vid"), Seq("vid"), "left_anti").transform(repro.diff.Engine.ckpt)
      activeCnt = active.count()
      aEdges = aEdges
        .join(active.select(col("vid").as("__k1")), col("src") === col("__k1"), "left_semi")
        .join(active.select(col("vid").as("__k2")), col("dst") === col("__k2"), "left_semi")
        .transform(repro.diff.Engine.ckpt)
    }
    finish(spark, parts.result())
  }

  /** Canonicalize SCC labels to the minimum member vid. */
  private def finish(spark: SparkSession, parts: Seq[DataFrame]): DataFrame = {
    if (parts.isEmpty) {
      import org.apache.spark.sql.types._
      return spark.createDataFrame(
        spark.sparkContext.emptyRDD[org.apache.spark.sql.Row],
        StructType(Seq(StructField("vid", LongType), StructField("scc", LongType))))
    }
    val all = parts.reduce(_ unionByName _).transform(repro.diff.Engine.ckpt)
    val rep = repro.diff.Engine.fresh(all.groupBy("scc").agg(min(col("vid")).as("__rep")))
    all.join(rep, Seq("scc")).select(col("vid"), col("__rep").as("scc")).transform(repro.diff.Engine.ckpt)
  }

  /** Incremental SCC via condensation of the previous view's result.
    *
    * @param deletedEdges edges of the previous view that the difference set
    *                     removed (src/dst columns)
    */
  def incremental(spark: SparkSession, edges: DataFrame, deletedEdges: DataFrame,
                  prevScc: DataFrame): DataFrame = {
    val sByVid = prevScc.select(col("vid"), col("scc"))
    val broken = deletedEdges
      .join(sByVid.select(col("vid").as("__s"), col("scc").as("__cs")), col("src") === col("__s"))
      .join(sByVid.select(col("vid").as("__d"), col("scc").as("__cd")), col("dst") === col("__d"))
      .where(col("__cs") === col("__cd"))
      .select(col("__cs").as("scc"))
      .distinct()
    val mapping = sByVid
      .join(broadcast(broken.withColumn("__b", lit(1))), Seq("scc"), "left")
      .select(col("vid"),
              when(col("__b").isNotNull, col("vid") + SingletonOffset)
                .otherwise(col("scc")).as("superid"))
      .transform(repro.diff.Engine.ckpt)
    val qEdges = edges
      .join(mapping.select(col("vid").as("__s"), col("superid").as("qsrc")), col("src") === col("__s"))
      .join(mapping.select(col("vid").as("__d"), col("superid").as("qdst")), col("dst") === col("__d"))
      .where(col("qsrc") =!= col("qdst"))
      .select(col("qsrc").as("src"), col("qdst").as("dst"))
      .distinct()
    val qVerts = mapping.select(col("superid").as("vid")).distinct()
    val qScc = scratch(spark, qVerts, qEdges)
    val out = mapping
      .join(qScc.select(col("vid").as("superid"), col("scc").as("__q")), Seq("superid"))
      .select(col("vid"), col("__q").as("scc"))
    // Re-canonicalize to original vids (quotient reps may be super ids).
    val rep = repro.diff.Engine.fresh(out.groupBy("scc").agg(min(col("vid")).as("__rep")))
    out.join(rep, Seq("scc")).select(col("vid"), col("__rep").as("scc")).transform(repro.diff.Engine.ckpt)
  }

  def fromScratch(spark: SparkSession, vertices: Array[Long],
                  edges: EdgeArrangement): RunResult = {
    import spark.implicits._
    asRun(scratch(spark, spark.sparkContext.parallelize(vertices.toSeq).toDF("vid"),
                  edges.toFrame(spark)))
  }

  def advance(spark: SparkSession, edges: EdgeArrangement, delta: Seq[Delta],
              prev: RunResult): RunResult = {
    import spark.implicits._
    asRun(incremental(spark, edges.toFrame(spark),
      delta.filter(_.diff < 0).map(d => (d.src, d.dst)).toDF("src", "dst"),
      spark.sparkContext.parallelize(prev.finalState.toSeq.map { case (v, c) => (v, c.toLong) })
        .toDF("vid", "scc")))
  }

  /** SCC keeps no iteration trace: `advance` needs only the previous ids. */
  private def asRun(scc: DataFrame): RunResult =
    RunResult(scc.collect().map(r => r.getLong(0) -> r.getLong(1).toDouble).toMap,
              Trace.empty, 0, 0L)
}
