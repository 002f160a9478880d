package repro.bench

import org.apache.spark.sql.SparkSession

/** Entry point reproducing the paper's Tables 2, 3 and 4:
  *
  * {{{
  *   sbt "runMain repro.bench.Tables <table2|table3|table4>"
  *   spark-submit --class repro.bench.Tables repro.jar <table2|table3|table4>
  * }}}
  *
  * Prints the table to standard output. Scale via REPRO_BENCH_SCALE
  * (default 1.0); master via SPARK_MASTER (default `local[*]`).
  */
object Tables {

  private val tables: Map[String, SparkSession => Seq[String]] = Map(
    "table2" -> Table2.run, "table3" -> Table3.run, "table4" -> Table4.run)

  def main(args: Array[String]): Unit = {
    val table = args.headOption.flatMap(tables.get).getOrElse {
      System.err.println(s"usage: repro.bench.Tables <${tables.keys.toSeq.sorted.mkString("|")}>")
      sys.exit(2)
    }
    val spark = SparkSession.builder().appName(s"graphsurge-${args(0)}")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try table(spark).foreach(println)
    finally spark.stop()
  }
}
