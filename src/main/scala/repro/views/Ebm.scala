package repro.views

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, BooleanType, LongType, StructField, StructType}
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Compiler}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

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
  * leaf of the k predicates (an atom) is projected once per edge as a
  * compiled Catalyst column, so Spark's coercion, ANSI and null semantics
  * apply to it unchanged. One `mapPartitions` then evaluates each view's
  * skeleton over the row's atoms in SQL three-valued logic and sets bit j
  * iff view j's predicate is TRUE (false and unknown both leave it clear).
  * Views that share comparisons — ¹⁰C₅ community removal has ~2,500
  * comparisons over 20 atoms — share their evaluation (multiple-query
  * optimization), and the embarrassingly parallel pass stays one job.
  * Rows with equal atom values have equal bits, so within a partition the
  * skeletons run once per distinct atom vector, not once per row.
  *
  * Ordering and the difference stream depend on a row only through its
  * bits, so they work from the EBM's distinct rows ([[patterns]]) and
  * their multiplicities: ¹⁰C₅ community removal on ~9K edges has 56.
  */
object Ebm {

  /** Number of 64-bit words needed for k views. */
  def words(k: Int): Int = (k + 63) / 64

  /** A predicate's Boolean skeleton over atom indices. */
  private sealed trait Skel extends Serializable
  private final case class Atom(i: Int)          extends Skel
  private final case class Conj(l: Skel, r: Skel) extends Skel
  private final case class Disj(l: Skel, r: Skel) extends Skel
  private final case class Neg(x: Skel)          extends Skel

  // SQL truth values.
  private final val F: Byte = 0
  private final val T: Byte = 1
  private final val U: Byte = 2

  /** Compute the EBM frame: `eid, src, dst, weight, bits: array<long>`.
    * Bit j (word j/64, offset j%64) is view j in the *given* (pre-ordering)
    * view order. A predicate with a non-Boolean leaf (`[v: duration]`) is
    * rejected before any Spark job runs.
    */
  def compute(graph: PropertyGraph, predicates: Seq[Ast.Expr]): DataFrame = {
    val resolved = graph.resolved
    val columns = resolved.columns.toSeq
    val atoms = mutable.LinkedHashMap.empty[Ast.Expr, Int]
    def split(e: Ast.Expr): Skel = e match {
      case Ast.And(l, r) => Conj(split(l), split(r))
      case Ast.Or(l, r)  => Disj(split(l), split(r))
      case Ast.Not(x)    => Neg(split(x))
      case leaf          => Atom(atoms.getOrElseUpdate(leaf, atoms.size))
    }
    val views = predicates.map(split).toIndexedSeq
    val weight = if (columns.contains("weight")) coalesce(col("weight"), lit(1.0)) else lit(1.0)
    pack(resolved, Seq(col("eid"), col("src"), col("dst"), weight.as("weight")),
         atoms.keys.toSeq.map(Compiler.edgePredicate(_, columns)), views)
  }

  /** Pack arbitrary boolean columns of `df` into a `bits` array column:
    * view j is column j.
    */
  def fromBoolColumns(df: DataFrame, predicates: Seq[Column]): DataFrame = {
    val weight = if (df.columns.contains("weight")) Nil else Seq(lit(1.0).as("weight"))
    pack(df, df.columns.toSeq.map(col) ++ weight, predicates, predicates.indices.map(Atom(_)))
  }

  /** `df`'s `keep` columns plus `bits`, where bit j is set iff `views(j)`
    * is TRUE over the row's values of `atoms`.
    */
  private def pack(df: DataFrame, keep: Seq[Column], atoms: Seq[Column],
                   views: IndexedSeq[Skel]): DataFrame = {
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
    val rows = in.rdd.mapPartitions { it =>
      val memo = mutable.HashMap.empty[ArraySeq[Byte], Array[Long]]
      val v = new Array[Byte](m)
      it.map { r =>
        var i = 0
        while (i < m) {
          v(i) = if (r.isNullAt(n + i)) U else if (r.getBoolean(n + i)) T else F
          i += 1
        }
        val bits = memo.getOrElseUpdate(ArraySeq.unsafeWrapArray(v.clone()), {
          val b = new Array[Long](w)
          var j = 0
          while (j < k) {
            if (eval(skels(j), v) == T) b(j >> 6) |= 1L << (j & 63)
            j += 1
          }
          b
        })
        val out = new Array[Any](n + 1)
        i = 0
        while (i < n) { out(i) = r.get(i); i += 1 }
        out(n) = bits
        Row.fromSeq(ArraySeq.unsafeWrapArray(out))
      }
    }
    val bitsField = StructField("bits", ArrayType(LongType, containsNull = false), nullable = false)
    df.sparkSession.createDataFrame(rows, StructType(in.schema.fields.take(n) :+ bitsField))
  }

  private def atomsOf(s: Skel): Seq[Int] = s match {
    case Atom(i)    => Seq(i)
    case Conj(l, r) => atomsOf(l) ++ atomsOf(r)
    case Disj(l, r) => atomsOf(l) ++ atomsOf(r)
    case Neg(x)     => atomsOf(x)
  }

  /** Kleene evaluation of a skeleton over atom values `v`: FALSE dominates a
    * conjunction and TRUE a disjunction, otherwise unknown is contagious.
    */
  private def eval(s: Skel, v: Array[Byte]): Byte = s match {
    case Atom(i) => v(i)
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

  /** The EBM's distinct rows (bit patterns), each with the number of edges
    * that have it, in no particular order: a histogram on the driver over
    * the collected `bits` column, so on a collection's local EBM frame no
    * Spark job runs. Everything that depends on an edge only through its
    * bits — the Hamming clique, Σ_t |δC_t| under any order — is a sum over
    * these patterns, and there are at most min(|E|, 3^#atoms) of them.
    */
  def patterns(ebm: DataFrame): Seq[(Seq[Long], Long)] = {
    val counts = mutable.HashMap.empty[Seq[Long], Long]
    ebm.select("bits").collect().foreach { r =>
      val bits = r.getSeq[Long](0)
      counts(bits) = counts.getOrElse(bits, 0L) + 1L
    }
    counts.toSeq
  }
}
