package repro.algorithms

import scala.collection.mutable
import repro.diff.{Analytic, EdgeArrangement, Trace}
import repro.diff.EdgeArrangement.Delta
import repro.diff.Engine.RunResult

/** Strongly connected components, on the driver over the collection loop's
  * [[EdgeArrangement]].
  *
  * `fromScratch` is the doubly-iterative coloring algorithm the paper uses
  * (Orzan [27]). Per round, over the active subgraph: (1) trim vertices
  * with no in- or out-edge (their SCCs are singletons) until none is left,
  * (2) propagate the maximum reaching vertex id forward to a fixpoint
  * ("coloring"), (3) propagate reachability of each color's root backward
  * over same-color edges, and (4) extract each root's SCC, the vertices
  * that reach it; repeat on the remainder.
  *
  * `advance` is condensation-based incremental maintenance (DESIGN.md
  * documents this substitution for DD's nested-iteration sharing): SCCs of
  * the previous view that lost no internal edge are still strongly
  * connected (edge additions never break an SCC, and deletions of
  * non-internal edges or self-loops don't either), so they contract to
  * super-nodes; broken SCCs expand to singletons; the same coloring then
  * runs on the much smaller quotient graph. Cost tracks the locality of the
  * difference set, degrading toward scratch as diffs grow — the trade-off
  * the paper's splitting optimizer exploits.
  *
  * SCC ids are canonical, the minimum member vid (as the double `value`),
  * so results compare directly with the Tarjan reference. A super-node's id
  * is its SCC's id, a member vid, and a singleton's is its own vid, so
  * super ids never collide and the quotient's canonical ids are again
  * minimum member vids. `iterations` counts the coloring's sweeps (trim,
  * forward and backward, over every round) and `workRows` the vertices
  * those sweeps examine. SCC keeps no iteration trace: `advance` needs only
  * the previous ids.
  */
object Scc extends Analytic {

  val name = "SCC"

  def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult =
    coloring(vertices, vertices.iterator.flatMap(v => edges.outNbrs(v, undirected = false).map(v -> _)))

  /** @param delta the view's difference set; its deletions decide which of
    *              `prev`'s SCCs break
    */
  def advance(edges: EdgeArrangement, delta: Seq[Delta], prev: RunResult): RunResult = {
    val scc = prev.finalState
    val broken = delta.iterator
      .filter(d => d.diff < 0 && d.src != d.dst && scc.get(d.src) == scc.get(d.dst))
      .flatMap(d => scc.get(d.src)).toSet
    def superOf(v: Long): Long = scc.get(v).filterNot(broken).fold(v)(_.toLong)

    val q = coloring(scc.keysIterator.map(superOf),
      scc.keysIterator.flatMap(v => edges.outNbrs(v, undirected = false).map(u => superOf(v) -> superOf(u))))
    q.copy(finalState = scc.map { case (v, _) => v -> q.finalState(superOf(v)) })
  }

  /** Orzan coloring of the graph on `vertices` with edges `pairs`, which
    * may hold self-loops, duplicates and endpoints outside `vertices` (all
    * ignored). Each vertex's id is the minimum vid of its SCC.
    */
  private def coloring(vertices: IterableOnce[Long], pairs: Iterator[(Long, Long)]): RunResult = {
    val es = pairs.filter(p => p._1 != p._2).toSet
    val ins = es.groupMap(_._2)(_._1)
    val outs = es.groupMap(_._1)(_._2)
    val active = mutable.HashSet.from(vertices)
    def nbrs(adj: Map[Long, Set[Long]], v: Long): Iterator[Long] =
      adj.getOrElse(v, Set.empty[Long]).iterator.filter(active)

    val ids = mutable.LongMap.empty[Double]
    var sweeps = 0
    var examined = 0L
    def sweep(): Unit = { sweeps += 1; examined += active.size }

    while (active.nonEmpty) {
      sweep()
      val trimmed = active.filter(v => nbrs(ins, v).isEmpty || nbrs(outs, v).isEmpty)
      if (trimmed.nonEmpty) {
        trimmed.foreach(v => ids(v) = v.toDouble)
        active --= trimmed
      } else {
        // color(v) = the maximum vid reaching v
        var color = mutable.LongMap.from(active.iterator.map(v => v -> v))
        var changed = true
        while (changed) {
          sweep()
          val prev = color
          color = mutable.LongMap.from(
            active.iterator.map(v => v -> nbrs(ins, v).map(prev).foldLeft(prev(v))(_ max _)))
          changed = active.exists(v => color(v) != prev(v))
        }
        // the vertices that reach their color's root within the color
        val reached = active.filter(v => color(v) == v)
        var grew = true
        while (grew) {
          sweep()
          val more = active.filter(v =>
            !reached(v) && nbrs(outs, v).exists(u => reached(u) && color(u) == color(v)))
          reached ++= more
          grew = more.nonEmpty
        }
        reached.groupBy(color).values.foreach { m =>
          val id = m.min.toDouble
          m.foreach(ids(_) = id)
        }
        active --= reached
      }
    }
    RunResult(ids.toMap, Trace.empty, sweeps, examined)
  }
}
