package repro.perfbench

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Per-job and per-task records from the listener bus, keyed by the job
  * group the benchmark sets around each engine call (`cp`, `mh`, `all`).
  */
final class JobRecorder extends SparkListener {
  import JobRecorder._

  private val jobs = mutable.HashMap.empty[Int, Job]
  private val stages = mutable.HashMap.empty[Int, Stage]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    jobs(e.jobId) = new Job(group, e.time, e.time)
    for (s <- e.stageIds) stages.getOrElseUpdate(s, new Stage(group))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val s = stages.getOrElseUpdate(e.stageId, new Stage(""))
    s.taskMs += e.taskInfo.duration
    val m = e.taskMetrics
    if (m != null) {
      s.busyMs += m.executorRunTime
      s.gcMs += m.jvmGCTime
      s.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      s.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      s.resultBytes += m.resultSize
    }
  }

  def clear(): Unit = synchronized { jobs.clear(); stages.clear() }

  /** Spark metrics of one engine call that ran as job group `group` and
    * spent `joinS` seconds of wall time on `cores` task slots.
    */
  def summary(spark: SparkSession, group: String, joinS: Double, cores: Int): Map[String, Double] = {
    PerfbenchBus.drain(spark.sparkContext)
    synchronized {
      val js = jobs.valuesIterator.filter(_.group == group).toSeq.sortBy(_.startMs)
      val ss = stages.valuesIterator.filter(s => s.group == group && s.taskMs.nonEmpty).toSeq
      // wall time covered by at least one job
      var coveredMs = 0L
      var reach = Long.MinValue
      for (j <- js) {
        val a = math.max(j.startMs, reach)
        if (j.endMs > a) coveredMs += j.endMs - a
        reach = math.max(reach, j.endMs)
      }
      val busyMs = ss.map(_.busyMs).sum
      val largest = ss.sortBy(s => -s.taskMs.sum).headOption
      val skew = largest.fold(0.0) { s =>
        val sorted = s.taskMs.sorted
        sorted.last.toDouble / math.max(1L, sorted(sorted.length / 2))
      }
      Map(
        "jobs" -> js.size.toDouble,
        "stages" -> ss.size.toDouble,
        "tasks" -> ss.map(_.taskMs.size).sum.toDouble,
        "task_busy_s" -> busyMs / 1e3,
        "utilization" -> (if (joinS > 0) busyMs / 1e3 / (joinS * cores) else 0.0),
        "driver_s" -> math.max(0.0, joinS - coveredMs / 1e3),
        "max_task_s" -> (if (ss.isEmpty) 0.0 else ss.map(_.taskMs.max).max / 1e3),
        "skew" -> skew,
        "shuffle_write_bytes" -> ss.map(_.shuffleWriteBytes).sum.toDouble,
        "shuffle_records" -> ss.map(_.shuffleRecords).sum.toDouble,
        "result_bytes" -> ss.map(_.resultBytes).sum.toDouble,
        "gc_s" -> ss.map(_.gcMs).sum / 1e3,
      )
    }
  }

  /** Job intervals of `group`, for the span log. */
  def jobIntervals(group: String): Seq[(Long, Long)] = synchronized {
    jobs.valuesIterator.filter(_.group == group).map(j => (j.startMs, j.endMs)).toSeq.sorted
  }
}

object JobRecorder {
  final class Job(val group: String, val startMs: Long, var endMs: Long)
  final class Stage(val group: String) {
    val taskMs = mutable.ArrayBuffer.empty[Long]
    var busyMs = 0L
    var gcMs = 0L
    var shuffleWriteBytes = 0L
    var shuffleRecords = 0L
    var resultBytes = 0L
  }

  val fields: Seq[String] = Seq("jobs", "stages", "tasks", "task_busy_s", "utilization", "driver_s",
    "max_task_s", "skew", "shuffle_write_bytes", "shuffle_records", "result_bytes", "gc_s")
}
