package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import scala.collection.mutable
import repro.diff.VertexProgram

/** Correctness oracles that share no code with the engine.
  *
  * DuckDB:
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[String]] = {
    val order = cols.sorted
    val idx   = order.map(cols.indexOf)
    rows
      .map(r => idx.map { i =>
        r.get(i) match {
          case null                 => "∅"
          case d: Double            => f"$d%.6f"
          case f: Float             => f"${f.toDouble}%.6f"
          case bd: java.math.BigDecimal => f"${bd.doubleValue}%.6f"
          case x                    => x.toString
        }
      })
      .sortBy(_.mkString(""))
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.map(c => s"$c VARCHAR").mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val ps = conn.prepareStatement(
          s"INSERT INTO $name VALUES (${cols.map(_ => "?").mkString(",")})"
        )
        df.collect().foreach { r =>
          cols.indices.foreach(i => ps.setString(i + 1, Option(r.get(i)).map(_.toString).orNull))
          ps.addBatch()
        }
        ps.executeBatch(); ps.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      require(got == exp,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first spark-only: ${got.diff(exp).take(3)}\n" +
        s"  first duck-only:  ${exp.diff(got).take(3)}"
      )
    } finally conn.close()
  }

  /** The synchronous Jacobi iterations of `prog` over a plain edge list
    * `(src, dst, weight)`: element j is every vertex's state at iteration
    * j, from the initial states up to and including the first iteration
    * that changes nothing, or up to the iteration cap. Edges are mirrored
    * for an undirected program, and a degree-dependent one divides by the
    * out-degree over the mirrored list. Shares only the program's
    * `init`, `msg` and `combine` with the engine.
    */
  def jacobi(prog: VertexProgram, vertices: Seq[Long],
             edges: Seq[(Long, Long, Double)]): Vector[Map[Long, Double]] = {
    val seen = if (prog.undirected) edges ++ edges.map { case (s, d, w) => (d, s, w) } else edges
    val degree = seen.groupMapReduce(_._1)(_ => 1L)(_ + _)
    val into = seen.groupBy(_._2)
    val cap = prog.fixedIterations.getOrElse(prog.maxIterations)
    val states = mutable.ArrayBuffer(vertices.map(v => v -> prog.init(v)).toMap)
    var changed = true
    while (changed && states.size <= cap) {
      val prev = states.last
      val next = vertices.map { v =>
        val msgs = into.getOrElse(v, Nil).map { case (s, _, w) =>
          prog.msg(prev.getOrElse(s, prog.init(s)), w, if (prog.degreeDependent) degree(s) else 1L)
        }
        val agg = if (prog.aggIsMin) msgs.foldLeft(Double.PositiveInfinity)(math.min) else msgs.sum
        v -> prog.combine(prog.init(v), agg)
      }.toMap
      changed = next != prev
      states += next
    }
    states.toVector
  }

  /** SCCs by Kosaraju's two passes: DFS finish order on the graph, then a
    * search on the transpose from each unassigned vertex in reverse finish
    * order, each search's reach one SCC. Every
    * vertex maps to the minimum vid of its SCC; edges with an endpoint
    * outside `vertices` are ignored. Independent of the Tarjan DFS that
    * both `Scc` and `Reference.scc` use.
    */
  def kosaraju(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val vs = vertices.toSet
    val kept = edges.filter { case (s, d) => vs(s) && vs(d) }
    val out = kept.groupMap(_._1)(_._2)
    val in = kept.groupMap(_._2)(_._1)

    val seen = mutable.Set.empty[Long]
    val finished = mutable.ArrayBuffer.empty[Long]
    for (root <- vertices if seen.add(root)) {
      val stack = mutable.Stack((root, out.getOrElse(root, Nil).iterator))
      while (stack.nonEmpty) {
        val (v, it) = stack.top
        it.find(seen.add) match {
          case Some(w) => stack.push((w, out.getOrElse(w, Nil).iterator))
          case None    => stack.pop(); finished += v
        }
      }
    }

    val comp = mutable.Map.empty[Long, Long]
    for (root <- finished.reverseIterator if !comp.contains(root)) {
      val tree = mutable.ArrayBuffer(root)
      comp(root) = root
      var i = 0
      while (i < tree.size) {
        for (w <- in.getOrElse(tree(i), Nil) if !comp.contains(w)) { comp(w) = root; tree += w }
        i += 1
      }
      val id = tree.min
      tree.foreach(comp(_) = id)
    }
    comp.toMap
  }
}
