package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

import scala.collection.mutable

/** One timed call into the program, recorded from the benchmark side.
  *
  * `phase` is the end-to-end bucket the call belongs to (`setup`, `cct`, or a
  * (program, mode) cell such as `bf_diff`); `jobs`, `tasks`, `busyMs` and
  * `shuffleBytes` are the Spark work the listener saw while this span was
  * the innermost open one.
  */
final case class Span(id: Int, parent: Int, runId: Int, name: String, phase: String,
                      startMs: Long, startNs: Long) {
  var endNs: Long = startNs
  var endMs: Long = startMs
  var jobs = 0L
  var tasks = 0L
  var busyMs = 0L
  var shuffleBytes = 0L
  def durMs: Double = (endNs - startNs) / 1e6
}

/** Records spans around public calls. With tracing off it only times calls;
  * with tracing on it also keeps every span in memory and tags Spark jobs
  * with the innermost span id so the listener can attribute their work.
  */
final class Tracer(sc: SparkContext, val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private val stack = mutable.Stack.empty[Span]
  private var runId = 0
  val listener: Option[PhaseListener] =
    if (enabled) { val l = new PhaseListener; sc.addSparkListener(l); Some(l) } else None

  def newRun(): Int = { runId += 1; runId }

  /** Run `body` inside a span; returns its result and wall-clock seconds. */
  def timed[A](name: String, phase: String = "")(body: => A): (A, Double) = {
    val ph = if (phase.nonEmpty) phase else stack.headOption.map(_.phase).getOrElse("")
    val s = Span(spans.size + 1, stack.headOption.map(_.id).getOrElse(0), runId, name, ph,
                 System.currentTimeMillis(), System.nanoTime())
    if (enabled) { spans += s; stack.push(s); tag() }
    try {
      val out = body
      s.endNs = System.nanoTime(); s.endMs = System.currentTimeMillis()
      Console.err.println(f"[perfbench] $name%-34s ${s.phase}%-12s ${s.durMs / 1e3}%8.3f s")
      (out, (s.endNs - s.startNs) / 1e9)
    } finally {
      if (enabled) { stack.pop(); tag() }
    }
  }

  def span[A](name: String, phase: String = "")(body: => A): A = timed(name, phase)(body)._1

  private def tag(): Unit =
    sc.setLocalProperty(PhaseListener.Key, stack.headOption.map(_.id.toString).orNull)

  /** Wait for the listener bus to deliver every event posted so far, then
    * copy the per-span counts onto the spans.
    */
  def settle(): Unit = listener.foreach { l =>
    l.flushed = false
    sc.setLocalProperty(PhaseListener.Key, PhaseListener.Flush)
    sc.parallelize(Seq(1), 1).count()
    sc.setLocalProperty(PhaseListener.Key, null)
    val deadline = System.nanoTime() + 60L * 1000000000L
    while (!l.flushed && System.nanoTime() < deadline) Thread.sleep(20)
    spans.foreach { s =>
      l.perTag.get(s.id.toString).foreach { c =>
        s.jobs = c.jobs; s.tasks = c.tasks; s.busyMs = c.busyMs; s.shuffleBytes = c.shuffleBytes
      }
    }
  }

  def children(s: Span): Seq[Span] = spans.toSeq.filter(_.parent == s.id)

  /** Span duration minus the part covered by its (sequential) children. */
  def selfMs(s: Span): Double = s.durMs - children(s).map(_.durMs).sum

  /** Spark counts (jobs, tasks, busy ms, shuffle bytes) summed over every
    * span of the given phase in the given run.
    */
  def phaseTotals(phase: String, run: Int): (Long, Long, Long, Long) = {
    val ss = spans.filter(s => s.phase == phase && s.runId == run)
    (ss.map(_.jobs).sum, ss.map(_.tasks).sum, ss.map(_.busyMs).sum, ss.map(_.shuffleBytes).sum)
  }

  /** Top-level spans of a phase (whose parent has another phase). */
  def phaseRoots(phase: String, run: Int): Seq[Span] = {
    val byId = spans.map(s => s.id -> s).toMap
    spans.toSeq.filter(s => s.phase == phase && s.runId == run &&
                            byId.get(s.parent).forall(_.phase != phase))
  }

  /** Wall-clock seconds within the phase's root spans during which no task ran. */
  def idleSeconds(phase: String, run: Int): Double = listener match {
    case None => 0.0
    case Some(l) =>
      phaseRoots(phase, run).map { s =>
        val covered = l.coveredMs(s.startMs, s.endMs)
        math.max(0L, (s.endMs - s.startMs) - covered) / 1e3
      }.sum
  }

  /** The spans as JSON lines, each with its self time. */
  def toJsonLines: Seq[String] = spans.toSeq.map { s =>
    Json.obj(Seq(
      "id" -> s.id, "parent" -> s.parent, "run" -> s.runId, "name" -> s.name,
      "phase" -> s.phase, "start_ms" -> s.startMs, "end_ms" -> s.endMs,
      "dur_ms" -> s.durMs, "self_ms" -> selfMs(s), "jobs" -> s.jobs, "tasks" -> s.tasks,
      "busy_ms" -> s.busyMs, "shuffle_bytes" -> s.shuffleBytes))
  }

  def close(): Unit = listener.foreach(sc.removeSparkListener)

  /** Spark counts (jobs, tasks, busy ms, shuffle bytes) of a whole run. */
  def runTotals(run: Int): (Long, Long, Long, Long) = {
    val ss = spans.filter(_.runId == run)
    (ss.map(_.jobs).sum, ss.map(_.tasks).sum, ss.map(_.busyMs).sum, ss.map(_.shuffleBytes).sum)
  }
}

/** Counts Spark jobs, tasks, task run time and shuffle bytes per span tag,
  * and keeps every task's run interval so idle time can be derived.
  */
final class PhaseListener extends SparkListener {
  final class Counts { var jobs = 0L; var tasks = 0L; var busyMs = 0L; var shuffleBytes = 0L }

  val perTag = mutable.Map.empty[String, Counts]
  private val stageTag = mutable.Map.empty[Int, String]
  private val intervals = mutable.ArrayBuffer.empty[(Long, Long)]
  @volatile var flushed = false

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(PhaseListener.Key)))
      .getOrElse("")
    e.stageIds.foreach(stageTag(_) = tag)
    perTag.getOrElseUpdate(tag, new Counts).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (perTag.get(PhaseListener.Flush).exists(_.jobs > 0)) {
      perTag.remove(PhaseListener.Flush)
      flushed = true
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = perTag.getOrElseUpdate(stageTag.getOrElse(e.stageId, ""), new Counts)
    c.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      c.busyMs += m.executorRunTime
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
    intervals += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
  }

  /** Milliseconds of [from, to) during which at least one task was running. */
  def coveredMs(from: Long, to: Long): Long = synchronized {
    val clipped = intervals.iterator
      .map { case (a, b) => (math.max(a, from), math.min(b, to)) }
      .filter { case (a, b) => b > a }
      .toSeq.sortBy(_._1)
    var covered = 0L
    var curA = -1L
    var curB = -1L
    clipped.foreach { case (a, b) =>
      if (a > curB) { covered += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    covered + (curB - curA)
  }
}

object PhaseListener {
  val Key = "perfbench.span"
  val Flush = "__flush"
}
