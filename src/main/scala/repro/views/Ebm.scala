package repro.views

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Attribute, UnsafeProjection}
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.BooleanType
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Compiler}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.collection.mutable.ArrayBuilder

/** Edge Boolean Matrix (§3.2, step 1).
  *
  * For each edge e and each view predicate p_j, the EBM records whether e
  * satisfies p_j. Rows are edges; the k view columns are packed into
  * ⌈k/64⌉ longs per row (column `bits`), so a 252-view collection costs 4
  * longs per edge.
  *
  * Distinct atoms in Catalyst, views combined in Kleene logic: every
  * predicate is split into its Boolean skeleton (`and`/`or`/`not`) over
  * leaves — comparisons, bare property refs, literals — and each distinct
  * leaf of the k predicates (an atom) is analyzed once as a Catalyst
  * expression and evaluated per edge by a compiled projection, so Spark's
  * coercion, ANSI and null semantics apply to it unchanged. One driver loop
  * then evaluates each view's skeleton over the row's atoms in SQL
  * three-valued logic and sets bit j iff view j's predicate is TRUE (false
  * and unknown both leave it clear). Views that share comparisons — ¹⁰C₅
  * community removal has ~2,500 comparisons over 20 atoms — share their
  * evaluation (multiple-query optimization). Rows with equal atom values
  * have equal bits, so the skeletons run once per distinct atom vector, not
  * once per row.
  *
  * The loop reads the graph's resolved rows, which Spark collects once per
  * graph ([[repro.graph.PropertyGraph.resolvedRows]], ascending `eid`), so
  * only a graph's first build starts a Spark job. It writes the EBM as
  * [[Columns]], the only EBM a build makes (no `Row`, no DataFrame):
  * primitive `eid, src, dst, weight` arrays, a pattern id per edge and the
  * distinct bit patterns, O(|E| + #patterns·⌈k/64⌉). Ordering and the
  * stream depend on a row only through its bits, so they work from that
  * pattern table (¹⁰C₅ community removal on ~9K edges has 56 patterns). A
  * DataFrame is only an export ([[Columns.frame]]); [[patterns]] reads
  * such a frame's `bits` back into a pattern table.
  */
object Ebm {

  /** Number of 64-bit words needed for k views. */
  def words(k: Int): Int = (k + 63) / 64

  /** A predicate's Boolean skeleton over atom indices. */
  private sealed trait Skel
  private final case class Atom(i: Int)          extends Skel
  private final case class Conj(l: Skel, r: Skel) extends Skel
  private final case class Disj(l: Skel, r: Skel) extends Skel
  private final case class Neg(x: Skel)          extends Skel

  // SQL truth values.
  private final val F: Byte = 0
  private final val T: Byte = 1
  private final val U: Byte = 2

  /** The EBM on the driver, in EBM row order: ascending `eid` for a graph's
    * EBM, the collected order for [[fromBoolColumns]], stream order for an
    * explicit collection ([[ViewCollection.fromExplicitDiffs]]). Edge i is
    * `eid(i), src(i), dst(i)` with `weight(i)`, and its bits are
    * `bits(pattern(i))`: the pattern table lists each distinct bit pattern
    * once, in order of first occurrence.
    */
  final class Columns(val eid: Array[Long], val src: Array[Long], val dst: Array[Long],
                      val weight: Array[Double], val pattern: Array[Int],
                      val bits: IndexedSeq[Seq[Long]]) {

    def size: Int = eid.length

    /** Each distinct bit pattern with its number of edges, by pattern id. */
    lazy val patterns: IndexedSeq[(Seq[Long], Long)] = {
      val counts = new Array[Long](bits.size)
      pattern.foreach(p => counts(p) += 1)
      bits.zip(counts)
    }

    /** The rows that satisfy `keep` as a local EBM frame `eid, src, dst,
      * weight, bits: array<long>`, in their order; it starts no job.
      */
    def frame(spark: SparkSession, keep: Int => Boolean = _ => true): DataFrame = {
      import spark.implicits._
      (0 until size).filter(keep).map(i => (eid(i), src(i), dst(i), weight(i), bits(pattern(i))))
        .toDF("eid", "src", "dst", "weight", "bits")
    }
  }

  /** Compute the EBM of `predicates` over `graph` as driver columns, in
    * ascending `eid`, from the graph's [[PropertyGraph.resolvedRows]]: only
    * a graph's first build runs a Spark job, the one that collects them.
    * Bit j (word j/64, offset j%64) is view j in the *given* (pre-ordering)
    * view order. A predicate with a non-Boolean leaf (`[v: duration]`) is
    * rejected before any Spark job runs.
    */
  def columns(graph: PropertyGraph, predicates: Seq[Ast.Expr]): Columns = {
    val resolved = graph.resolved
    val atoms = mutable.LinkedHashMap.empty[Ast.Expr, Int]
    def split(e: Ast.Expr): Skel = e match {
      case Ast.And(l, r) => Conj(split(l), split(r))
      case Ast.Or(l, r)  => Disj(split(l), split(r))
      case Ast.Not(x)    => Neg(split(x))
      case leaf          => Atom(atoms.getOrElseUpdate(leaf, atoms.size))
    }
    val views = predicates.map(split).toIndexedSeq
    pack(resolved, graph.resolvedRows,
         atoms.keys.toSeq.map(Compiler.edgePredicate(_, resolved.columns.toSeq)), views)
  }

  /** Pack arbitrary boolean columns of `df` into driver EBM columns, in
    * `df`'s collected order: view j is column j. `df` needs an `eid`;
    * without `src`/`dst` columns both read 0.
    */
  def fromBoolColumns(df: DataFrame, predicates: Seq[Column]): Columns =
    pack(df, (df.queryExecution.analyzed.output, df.queryExecution.toRdd.map(_.copy()).collect()),
         predicates, predicates.indices.map(Atom(_)))

  /** The EBM of `rows`, `df`'s output and rows on the driver, where bit j is
    * set iff `views(j)` is TRUE over the row's values of `atoms` — the one
    * kernel. Spark only analyzes the atoms over `df`; Catalyst's compiled
    * projection evaluates them row by row on the driver, so their coercion,
    * null and ANSI semantics are Spark's. `rows` is read after the type
    * check. A missing weight, or a null one, reads 1.0.
    */
  private def pack(df: DataFrame, rows: => (Seq[Attribute], Array[InternalRow]),
                   atoms: Seq[Column], views: IndexedSeq[Skel]): Columns = {
    def endpoint(c: String) = (if (df.columns.contains(c)) col(c) else lit(0L)).cast("long")
    val wt = if (df.columns.contains("weight")) coalesce(col("weight"), lit(1.0)) else lit(1.0)
    val keep = Seq(col("eid").cast("long"), endpoint("src"), endpoint("dst"), wt.cast("double"))
    val in = df.select(keep ++ atoms.zipWithIndex.map { case (a, i) => a.as(s"__atom$i") }: _*)
    val n = keep.size
    val types = in.schema.fields.drop(n).map(_.dataType)
    for ((v, j) <- views.zipWithIndex; i <- atomsOf(v) if types(i) != BooleanType)
      throw new IllegalArgumentException(
        s"view $j is not a Boolean predicate: its term ${atoms(i)} has type " +
        s"${types(i).simpleString}, not boolean")

    val m = atoms.size
    val k = views.size
    val w = words(k)
    val skels = views.toArray
    val Project(projectList, _) = (in.queryExecution.analyzed: @unchecked)
    val (output, data) = rows
    val proj = UnsafeProjection.create(projectList, output)
    val eid, src, dst = new ArrayBuilder.ofLong
    val weight = new ArrayBuilder.ofDouble
    val pattern = new ArrayBuilder.ofInt
    // The distinct bit patterns in order of first occurrence, and their ids.
    val table = mutable.ArrayBuffer.empty[Seq[Long]]
    val ids = mutable.HashMap.empty[Seq[Long], Int]
    // Memo key: the row's atom values, 2 bits an atom (F, T, U) in longs.
    val memo = mutable.HashMap.empty[ArraySeq[Long], Int]
    val v = new Array[Long]((m + 31) / 32)
    data.iterator.map(proj).foreach { r =>
      java.util.Arrays.fill(v, 0L)
      var i = 0
      while (i < m) {
        val a = if (r.isNullAt(n + i)) U else if (r.getBoolean(n + i)) T else F
        v(i >> 5) |= a.toLong << ((i & 31) << 1)
        i += 1
      }
      val p = memo.getOrElse(ArraySeq.unsafeWrapArray(v), {
        val b = new Array[Long](w)
        var j = 0
        while (j < k) {
          if (eval(skels(j), v) == T) b(j >> 6) |= 1L << (j & 63)
          j += 1
        }
        val bits = ArraySeq.unsafeWrapArray(b)
        val id = ids.getOrElseUpdate(bits, { table += bits; table.size - 1 })
        memo(ArraySeq.unsafeWrapArray(v.clone())) = id
        id
      })
      eid += r.getLong(0); src += r.getLong(1); dst += r.getLong(2); weight += r.getDouble(3)
      pattern += p
    }
    new Columns(eid.result(), src.result(), dst.result(), weight.result(), pattern.result(),
                table.toIndexedSeq)
  }

  private def atomsOf(s: Skel): Seq[Int] = s match {
    case Atom(i)    => Seq(i)
    case Conj(l, r) => atomsOf(l) ++ atomsOf(r)
    case Disj(l, r) => atomsOf(l) ++ atomsOf(r)
    case Neg(x)     => atomsOf(x)
  }

  /** Kleene evaluation of a skeleton over atom values `v`, 2 bits an atom:
    * FALSE dominates a conjunction and TRUE a disjunction, otherwise
    * unknown is contagious.
    */
  private def eval(s: Skel, v: Array[Long]): Byte = s match {
    case Atom(i) => ((v(i >> 5) >>> ((i & 31) << 1)) & 3L).toByte
    case Conj(l, r) =>
      val a = eval(l, v)
      if (a == F) F else { val b = eval(r, v); if (b == F || a == T) b else U }
    case Disj(l, r) =>
      val a = eval(l, v)
      if (a == T) T else { val b = eval(r, v); if (b == T || a == F) b else U }
    case Neg(x) =>
      val a = eval(x, v)
      if (a == U) U else (1 - a).toByte
  }

  /** Test bit j of one row's packed `bits`. */
  def isSet(bits: Seq[Long], j: Int): Boolean = (bits(j / 64) & (1L << (j % 64))) != 0L

  /** An EBM frame's distinct rows (bit patterns), each with the number of
    * edges that have it, in order of first occurrence, read from its `bits`
    * alone (a Spark job unless the frame is local): [[Columns.patterns]] of
    * the columns the frame was exported from. Everything that depends on an
    * edge only through its bits — the Hamming clique, Σ_t |δC_t| under any
    * order — is a sum over these patterns, and there are at most
    * min(|E|, 3^#atoms) of them.
    */
  def patterns(ebm: DataFrame): Seq[(Seq[Long], Long)] = {
    val counts = mutable.LinkedHashMap.empty[Seq[Long], Long]
    ebm.select("bits").collect().foreach { r =>
      val b = r.getSeq[Long](0)
      counts(b) = counts.getOrElse(b, 0L) + 1
    }
    counts.toSeq
  }
}
