package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.bench.BenchUtil

import scala.collection.mutable
import scala.io.Source

/** Benchmark entry point: one workload, one seed, one process, one
  * SparkSession on `local[N]`.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
  * }}}
  *
  * Set-up (session, warm-up on a tiny instance of the same shape, input
  * generation) is timed as `setup_s`. Then closed-loop passes run until
  * `--seconds` have elapsed (at least one). With `--trace 0` the passes run
  * untraced and the last stdout line carries the end-to-end metrics; with
  * `--trace 1` they run traced and it carries the per-layer metrics plus the
  * tracing overhead against the untraced runs recorded in `--out`.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: File)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
         need("trace") == "1", new File(kv.getOrElse("out", ".bench_build/perfbench")))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args)
    require(Workload.Names.contains(opts.workload),
      s"unknown workload '${opts.workload}' (expected one of ${Workload.Names.mkString(", ")})")
    opts.out.mkdirs()
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${opts.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(opts.out, "spark-local").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    BenchUtil.configure(spark)
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3

    val code =
      try run(spark, opts, sessionS)
      finally spark.stop()
    sys.exit(code)
  }

  private def run(spark: SparkSession, opts: Opts, sessionS: Double): Int = {
    val tracer = new Tracer(spark.sparkContext, opts.trace)
    val gate = new Gate
    val ctx = new Ctx(spark, tracer, gate)

    // ---- set-up: warm-up pass over a tiny instance, then input generation
    // three times (median) ----
    val (_, warmS) = tracer.timed("warm-up", "setup") {
      val w = Workload.warmUp(opts.workload, opts.seed + 1)
      w.setUp(ctx)
      w.pass(ctx)
    }
    val wl = Workload(opts.workload, opts.seed)
    val genS = (1 to 3).map(_ => tracer.timed("Workload.setUp", "setup")(wl.setUp(ctx))._2)
    val setupS = sessionS + warmS + Stats.median(genS)
    tracer.settle()
    val setupMetrics = sparkMetrics(tracer, 0, "setup", None) ++
      Seq("graph.gen_s" -> Stats.median(genS))

    // ---- closed-loop passes ----
    val passes = mutable.ArrayBuffer.empty[Map[String, Double]]
    val t0 = System.nanoTime()
    val steal0 = CpuStat.read()
    while (passes.isEmpty || (System.nanoTime() - t0) / 1e9 < opts.seconds) {
      val run = tracer.newRun()
      ctx.m = mutable.LinkedHashMap.empty
      tracer.span("pass", "pass")(wl.pass(ctx))
      val m = ctx.m
      m("pass_s") = m.collect { case (k, v) if isTimedCall(k) => v }.sum
      if (opts.trace) {
        tracer.settle()
        val cells = m.keys.collect { case k if k.startsWith("exec.") && k.endsWith(".run_s") =>
          k.stripPrefix("exec.").stripSuffix(".run_s") }.toSeq
        (sparkMetrics(tracer, run, "cct", None) ++ cells.flatMap { c =>
          sparkMetrics(tracer, run, c, Some(m(s"exec.$c.iterations")))
        }).foreach { case (k, v) => m(k) = v }
      }
      passes += m.toMap
    }
    tracer.close()
    val stealPct = CpuStat.stealPct(steal0, CpuStat.read())
    val rssMb = peakRssMb()

    val med = passes.flatMap(_.keys).distinct
      .map(k => k -> Stats.median(passes.toSeq.flatMap(_.get(k)))).toMap
    val endToEnd = Map(
      "setup_s" -> setupS,
      "pass_s" -> med("pass_s"),
      "diffs_total" -> med("diffs_total"),
      "peak_rss_mb" -> rssMb)

    // Tracing overhead: this run's traced pass time against the untraced
    // runs of the same workload recorded in the output directory.
    val untracedFile = new File(opts.out, s"${opts.workload}-seed${opts.seed}.pass_s")
    val untraced: Seq[Double] =
      if (untracedFile.exists()) Seq(readNumber(untracedFile))
      else Option(opts.out.listFiles()).toSeq.flatten
        .filter(f => f.getName.startsWith(s"${opts.workload}-seed") && f.getName.endsWith(".pass_s"))
        .map(readNumber).toSeq
    if (!opts.trace) write(untracedFile, s"${med("pass_s")}\n")
    else if (untraced.isEmpty) gate.note("no untraced run recorded yet: trace.overhead_pct = 0")

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) Metrics.EndToEnd.map { d => (d.name, endToEnd(d.name), d.unit) }
      else {
        val overhead =
          if (untraced.isEmpty) 0.0 else 100.0 * (med("pass_s") / Stats.median(untraced) - 1.0)
        val layers = med ++ setupMetrics ++ Map("trace.overhead_pct" -> overhead)
        Metrics.PerLayer.map(d => (d.name, layers.getOrElse(d.name, 0.0), d.unit))
      }

    // ---- report ----
    val provenance = Seq(
      "workload" -> opts.workload, "seed" -> opts.seed, "trace" -> opts.trace,
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "spark" -> spark.version,
      "source" -> sys.props.getOrElse("perfbench.source", "unknown"),
      "passes" -> passes.size, "cpu_steal_pct" -> stealPct,
      "session_s" -> sessionS, "warmup_s" -> warmS) ++ wl.provenance

    println(s"== perfbench ${opts.workload} seed=${opts.seed} trace=${if (opts.trace) 1 else 0} ==")
    provenance.foreach { case (k, v) => println(f"  $k%-22s $v") }
    val kind = if (opts.trace) "traced" else "untraced"
    println(s"-- end-to-end (median over $kind passes) --")
    Metrics.EndToEnd.foreach(d => println(f"  ${d.name}%-34s ${endToEnd(d.name)}%14.4f ${d.unit}"))
    println(s"-- per pass (median over $kind passes) --")
    med.toSeq.sortBy(_._1).foreach { case (k, v) =>
      println(f"  $k%-34s $v%14.4f ${Metrics.unitOf(k)}")
    }
    if (opts.trace) {
      println("-- per layer (median over traced passes) --")
      metrics.foreach { case (k, v, u) => println(f"  $k%-34s $v%14.4f $u") }
    }
    println(f"-- correctness: ${gate.attempted} ops, ${gate.failed} failed --")
    gate.notes.foreach(n => println(s"  $n"))

    val tag = s"${opts.workload}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}"
    write(new File(opts.out, s"$tag.json"), Json.obj(Seq(
      "provenance" -> provenance.toMap,
      "end_to_end" -> endToEnd,
      "passes" -> passes.toSeq,
      "setup_layers" -> setupMetrics.toMap,
      "failed_ops" -> gate.failed,
      "notes" -> gate.notes.toSeq)) + "\n")
    if (opts.trace) write(new File(opts.out, s"$tag.spans.jsonl"), tracer.toJsonLines.mkString("", "\n", "\n"))

    val correct = gate.failed == 0
    println(Json.obj(Seq(
      "correct" -> correct, "attempted" -> gate.attempted, "failed" -> gate.failed,
      "metrics" -> metrics.map { case (k, v, u) => k -> Map("value" -> v, "unit" -> u) }.toMap)))
    0
  }

  /** Keys of the calls an analyst waits on: collection build and each
    * whole-collection run (`<prog>_<mode>_s`).
    */
  private def isTimedCall(k: String): Boolean =
    k == "cct_s" || k.matches("[a-z]+_(diff|scratch)_s")

  /** Listener totals for one phase of one run; `iterations` (if given)
    * yields jobs per iteration.
    */
  private def sparkMetrics(tracer: Tracer, run: Int, phase: String,
                           iters: Option[Double]): Seq[(String, Double)] = {
    val (jobs, tasks, busyMs, shuffle) =
      if (phase == "setup") tracer.runTotals(run) else tracer.phaseTotals(phase, run)
    Seq(
      s"spark.$phase.jobs" -> jobs.toDouble,
      s"spark.$phase.tasks" -> tasks.toDouble,
      s"spark.$phase.busy_s" -> busyMs / 1e3,
      s"spark.$phase.idle_s" -> tracer.idleSeconds(phase, run),
      s"spark.$phase.shuffle_mb" -> shuffle / 1e6) ++
      iters.map(i => s"spark.$phase.jobs_per_iter" -> (if (i == 0) 0.0 else jobs / i)).toSeq
  }

  /** Peak resident set size of this process, from /proc (0 if unavailable). */
  private def peakRssMb(): Double =
    try {
      val src = Source.fromFile("/proc/self/status")
      try src.getLines().collectFirst {
        case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble / 1024.0
      }.getOrElse(0.0)
      finally src.close()
    } catch { case _: java.io.IOException => 0.0 }

  private def readNumber(f: File): Double = {
    val src = Source.fromFile(f)
    try src.mkString.trim.toDouble finally src.close()
  }

  private def write(f: File, s: String): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try w.write(s) finally w.close()
  }
}

/** Machine-wide CPU time from /proc/stat: the share the hypervisor stole
  * while the passes ran says how much of a slow run was the host's.
  */
object CpuStat {
  /** (steal, total) jiffies over all CPUs; zeros when unavailable. */
  def read(): (Long, Long) =
    try {
      val src = Source.fromFile("/proc/stat")
      try src.getLines().collectFirst { case l if l.startsWith("cpu ") =>
        val xs = l.trim.split("\\s+").drop(1).map(_.toLong)
        (if (xs.length > 7) xs(7) else 0L, xs.sum)
      }.getOrElse((0L, 0L))
      finally src.close()
    } catch { case _: java.io.IOException => (0L, 0L) }

  def stealPct(from: (Long, Long), to: (Long, Long)): Double = {
    val total = to._2 - from._2
    if (total <= 0) 0.0 else 100.0 * (to._1 - from._1) / total
  }
}

/** The metric catalogue: names, units and direction, as declared in
  * BENCHMARK.json.
  */
object Metrics {
  final case class Def(name: String, unit: String, better: String)

  val EndToEnd: Seq[Def] = Seq(
    Def("setup_s", "s", "lower"),
    Def("pass_s", "s", "lower"),
    Def("diffs_total", "count", "lower"),
    Def("peak_rss_mb", "MB", "lower"))

  val Cells: Seq[String] =
    Seq("bf_diff", "bf_scratch")
  val Programs: Seq[String] = Seq("bf")

  val PerLayer: Seq[Def] = Seq(
      Def("cct_s", "s", "lower"),
      Def("graph.gen_s", "s", "lower"),
      Def("gvdl.parse_ms", "ms", "lower"),
      Def("views.ebm_s", "s", "lower"),
      Def("views.diffstream_s", "s", "lower"),
      Def("ordering.order_s", "s", "lower"),
      Def("ordering.hamming_s", "s", "lower"),
      Def("ordering.tsp_ms", "ms", "lower"),
      Def("ordering.random_ratio", "x", "higher")) ++
    Cells.flatMap { c => Seq(
      Def(s"${c}_s", "s", "lower"),
      Def(s"exec.$c.run_s", "s", "lower"),
      Def(s"exec.$c.maintain_s", "s", "lower"),
      Def(s"exec.$c.iterations", "count", "lower"),
      Def(s"exec.$c.work", "count", "lower"),
      Def(s"exec.$c.ms_per_iter", "ms", "lower"),
      Def(s"exec.$c.view_p50_ms", "ms", "lower"),
      Def(s"spark.$c.jobs", "count", "lower"),
      Def(s"spark.$c.jobs_per_iter", "count", "lower"),
      Def(s"spark.$c.busy_s", "s", "lower"),
      Def(s"spark.$c.idle_s", "s", "lower"),
      Def(s"spark.$c.shuffle_mb", "MB", "lower")) } ++
    Programs.flatMap { p => Seq(
      Def(s"exec.$p.work_ratio", "x", "higher"),
      Def(s"exec.$p.wall_ratio", "x", "higher"),
      Def(s"optimizer.$p.regret_s", "s", "lower"),
      Def(s"optimizer.$p.diff_views", "count", "higher")) } ++
    Seq("setup", "cct").flatMap { p => Seq(
      Def(s"spark.$p.jobs", "count", "lower"),
      Def(s"spark.$p.tasks", "count", "lower"),
      Def(s"spark.$p.busy_s", "s", "lower"),
      Def(s"spark.$p.idle_s", "s", "lower"),
      Def(s"spark.$p.shuffle_mb", "MB", "lower")) } ++
    Seq(Def("trace.overhead_pct", "%", "lower"))

  private val units = (EndToEnd ++ PerLayer).map(d => d.name -> d.unit).toMap

  def unitOf(name: String): String = units.getOrElse(name,
    if (name.endsWith("_ms")) "ms" else if (name.endsWith("_s")) "s" else "count")
}
