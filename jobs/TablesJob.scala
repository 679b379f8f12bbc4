package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing one table of the paper's evaluation:
  * I (dataset statistics), II (join times of CPSJoin, MinHash LSH and
  * AllPairs at ≥ 90 % recall), III (CPSJoin parameters and the sensitivity
  * sweep of Fig. 3) or IV (pre-candidates, candidates and results).
  * Usage: spark-submit --class repro.jobs.TablesJob repro.jar <1|2|3|4> [scale]
  * Dataset subset via REPRO_DATASETS=AOL,DBLP,... .
  */
object TablesJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: TablesJob <1|2|3|4> [scale]")
    val n = args(0).toInt
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    val spark = SparkSession.builder.appName(s"repro-table$n").getOrCreate()
    try println(Tables.table(n, spark, scale))
    finally spark.stop()
  }
}
