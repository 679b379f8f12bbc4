package repro.perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import scala.collection.mutable

/** Embedded input of one trial; `bc` is set on the Spark engines. */
final case class Payload(recs: IndexedSeq[EmbeddedRec], bc: Option[Broadcast[Map[Long, EmbeddedRec]]])

/** Trace state of one traced trial: spans, Table IV counters per algorithm
  * and the Chosen Path tree shape. `parent` is the span new spans hang off.
  */
final class Tracer(val spans: Spans) {
  val cp = new Counts
  val mh = new Counts
  val all = new Counts
  val tree = new TreeStats
  var parent = 0

  /** Run `body` inside a span named `name` under the current parent. */
  def span[A](name: String)(body: => A): A = {
    val saved = parent
    val id = spans.open(name, saved)
    parent = id
    try body
    finally { spans.close(id); parent = saved }
  }
}

/** The public calls a trial makes into one engine family. Every call merges
  * its deduplicated pairs into `found`; a `Tracer` is passed on traced trials.
  */
abstract class Engine(lambda: Double, p: CPSParams, recallTarget: Double) {
  def embed(recs: IndexedSeq[SetRec]): Payload
  def cpReps(pl: Payload, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit
  def mhReps(pl: Payload, k: Int, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit
  def all(recs: IndexedSeq[SetRec], tr: Option[Tracer]): Map[(Long, Long), Double]
  def release(pl: Payload): Unit = pl.bc.foreach(_.destroy())

  /** MH key length, chosen on the driver by the cost rule of §V-B. */
  def chooseK(pl: Payload): Int = MinHashLSHLocal.chooseK(pl.recs, lambda, recallTarget, p.seed)
}

final class LocalEngine(lambda: Double, p: CPSParams, recallTarget: Double)
    extends Engine(lambda, p, recallTarget) {
  private def emitter(found: mutable.HashMap[(Long, Long), Double]) =
    (a: Long, b: Long, s: Double) => { found.update((math.min(a, b), math.max(a, b)), s); () }

  def embed(recs: IndexedSeq[SetRec]): Payload =
    Payload(EmbeddedRec.embedAll(recs, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq, None)

  def cpReps(pl: Payload, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit = {
    val emit = emitter(found)
    for (r <- reps) tr match {
      case Some(t) => t.span("cp.rep")(TracedCP.runRep(pl.recs, lambda, p, r, t.cp, emit, t.tree, t.spans, t.parent))
      case None => CPSJoinLocal.runRep(pl.recs, lambda, p, r, NullStats, emit)
    }
  }

  def mhReps(pl: Payload, k: Int, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit = {
    val emit = emitter(found)
    val sink = tr.fold[StatsSink](NullStats)(_.mh)
    for (r <- reps) MinHashLSHLocal.runRep(pl.recs, lambda, k, r, p, sink, emit)
  }

  def all(recs: IndexedSeq[SetRec], tr: Option[Tracer]): Map[(Long, Long), Double] =
    AllPairsLocal.selfJoin(recs, lambda, tr.fold[StatsSink](NullStats)(_.all))
}

/** Spark engines on a live session. Traced calls run under a job group named
  * after the algorithm so `JobRecorder` can attribute jobs, stages and tasks.
  */
final class SparkEngine(spark: SparkSession, lambda: Double, p: CPSParams, recallTarget: Double)
    extends Engine(lambda, p, recallTarget) {
  private def inGroup[A](group: String, tr: Option[Tracer])(body: => A): A =
    if (tr.isEmpty) body
    else {
      val sc = spark.sparkContext
      sc.setJobGroup(group, group, interruptOnCancel = false)
      try body finally sc.clearJobGroup()
    }

  def embed(recs: IndexedSeq[SetRec]): Payload = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    Payload(bc.value.values.toIndexedSeq, Some(bc))
  }

  def cpReps(pl: Payload, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit =
    inGroup("cp", tr)(found ++= new CPSJoinSpark(spark, pl.bc.get, lambda, p).run(reps))

  def mhReps(pl: Payload, k: Int, reps: Seq[Int], found: mutable.HashMap[(Long, Long), Double], tr: Option[Tracer]): Unit =
    inGroup("mh", tr) {
      tr match {
        case Some(t) =>
          val (sink, read) = AccumStats.create(spark, "perfbench-mh")
          found ++= new MinHashLSHSpark(spark, pl.bc.get, lambda, k, p, sink).run(reps)
          val (pre, cand, res) = read()
          t.mh.preCandidates(pre); t.mh.candidates(cand); t.mh.results(res)
        case None =>
          found ++= new MinHashLSHSpark(spark, pl.bc.get, lambda, k, p).run(reps)
      }
    }

  def all(recs: IndexedSeq[SetRec], tr: Option[Tracer]): Map[(Long, Long), Double] =
    inGroup("all", tr) {
      val (pairs, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      tr.foreach { t => t.all.preCandidates(pre); t.all.candidates(cand); t.all.results(pairs.size.toLong) }
      pairs
    }
}
