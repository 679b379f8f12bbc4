package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines._
import repro.data.Datasets
import scala.collection.mutable

/** Measurement harness for the paper's evaluation protocol (§VI):
  *
  *  - ground truth (and the exact baseline's join time) comes from the
  *    distributed ALLPAIRS join;
  *  - approximate methods run repetition batches until measured recall
  *    against the ground truth reaches the target (default 90 %), exactly as
  *    in the paper; preprocessing (MinHash embedding + sketches, broadcast)
  *    is excluded from join times, as are the driver-side recall
  *    computations between batches;
  *  - join times are wall-clock seconds around the join dataflows only.
  */
object Harness {

  final case class AlgoRun(seconds: Double, recall: Double, reps: Int,
                           results: Int, pre: Long = 0L, cand: Long = 0L)

  final case class Measurement(dataset: String, lambda: Double,
                               cp: AlgoRun, mh: AlgoRun, all: AlgoRun)

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Exact join: result pairs, counters, and join time. */
  def runAllPairs(spark: SparkSession, recs: IndexedSeq[SetRec], lambda: Double): (Map[(Long, Long), Double], AlgoRun) = {
    val ((pairs, pre, cand), secs) = time(AllPairsSpark.selfJoinCollect(spark, recs, lambda))
    (pairs, AlgoRun(secs, 1.0, 1, pairs.size, pre, cand))
  }

  /** Repeat an approximate method in batches until recall ≥ target.
    * `runBatch` executes the given repetition indices and returns their
    * (deduplicated within the batch) result pairs.
    */
  def repeatToRecall(truth: Set[(Long, Long)], target: Double, batches: Seq[Seq[Int]],
                     runBatch: Seq[Int] => Map[(Long, Long), Double]): AlgoRun = {
    val found = mutable.HashSet.empty[(Long, Long)]
    var secs = 0.0
    var reps = 0
    var recall = if (truth.isEmpty) 1.0 else 0.0
    val it = batches.iterator
    while (recall < target && it.hasNext) {
      val batch = it.next()
      val (res, s) = time(runBatch(batch))
      secs += s
      reps += batch.size
      found ++= res.keys
      recall = if (truth.isEmpty) 1.0 else truth.count(found.contains).toDouble / truth.size
    }
    AlgoRun(secs, recall, reps, found.size)
  }

  /** Repetition batches: front-loaded so cheap joins stop early. */
  def repBatches(maxReps: Int, first: Int = 4, next: Int = 3): Seq[Seq[Int]] = {
    val out = mutable.ArrayBuffer.empty[Seq[Int]]
    var start = 0
    var size = first
    while (start < maxReps) {
      val end = math.min(maxReps, start + size)
      out += (start until end)
      start = end
      size = next
    }
    out.toSeq
  }

  /** The CP and MH joins of one engine (local or Spark) over one embedding
    * of a dataset: repetition indices in, deduplicated pairs out.
    * `cpCounts` reads the CP counters (pre-candidates, candidates, results).
    */
  private final case class Joins(
      embedded: IndexedSeq[EmbeddedRec],
      cp: Seq[Int] => Map[(Long, Long), Double],
      cpCounts: () => (Long, Long, Long),
      mh: Int => Seq[Int] => Map[(Long, Long), Double])

  /** CP in `repBatches(maxReps)` until recall ≥ target, with its counters. */
  private def cpToRecall(j: Joins, truth: Set[(Long, Long)], target: Double, maxReps: Int): AlgoRun = {
    val run = repeatToRecall(truth, target, repBatches(maxReps), j.cp)
    val (pre, cand, _) = j.cpCounts()
    run.copy(pre = pre, cand = cand)
  }

  /** The repeat-to-recall protocol of one Table II cell, for either engine:
    * CP as in `cpToRecall`, then MH at the cost-chosen k in batches of
    * L(k)/4, up to 4·L(k) repetitions, until recall ≥ target.
    */
  private def protocol(name: String, lambda: Double, all: AlgoRun, truth: Set[(Long, Long)], j: Joins,
                       p: CPSParams, target: Double, maxReps: Int): Measurement = {
    val cp = cpToRecall(j, truth, target, maxReps)
    val k = MinHashLSHLocal.chooseK(j.embedded, lambda, target, p.seed)
    val lWorst = MinHashLSHLocal.repetitionsFor(target, lambda, k)
    val mhBatches = (0 until 4 * lWorst).grouped(math.max(1, lWorst / 4)).map(_.toSeq).toSeq
    Measurement(name, lambda, cp, repeatToRecall(truth, target, mhBatches, j.mh(k)), all)
  }

  /** Run `body` on the Spark joins of `recs`. Preprocessing (embedding and
    * broadcast) is untimed; the broadcast is destroyed afterwards. CP
    * counts through accumulators.
    */
  private def onSpark[A](spark: SparkSession, recs: IndexedSeq[SetRec], lambda: Double,
                         p: CPSParams)(body: Joins => A): A = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val (stats, counts) = AccumStats.create(spark, "cp")
      body(Joins(bc.value.values.toIndexedSeq, new CPSJoinSpark(spark, bc, lambda, p, stats).run, counts,
        k => new MinHashLSHSpark(spark, bc, lambda, k, p).run))
    } finally bc.destroy()
  }

  /** CPSJoin on Spark, repeated until recall ≥ target (at most 20
    * repetitions), with its counters: the CP runs of Tables III and IV.
    */
  def cpOnSpark(spark: SparkSession, recs: IndexedSeq[SetRec], lambda: Double, p: CPSParams,
                truth: Set[(Long, Long)], target: Double): AlgoRun =
    onSpark(spark, recs, lambda, p)(cpToRecall(_, truth, target, maxReps = 20))

  /** Full Table II-style measurement of one (dataset, λ) cell. */
  def measure(spark: SparkSession, name: String, recs: IndexedSeq[SetRec], lambda: Double,
              p: CPSParams = CPSParams(), recallTarget: Double = 0.9,
              maxReps: Int = 20): Measurement = {
    val (truthPairs, all) = runAllPairs(spark, recs, lambda)
    onSpark(spark, recs, lambda, p)(protocol(name, lambda, all, truthPairs.keySet, _, p, recallTarget, maxReps))
  }

  /** Table II cell measured with the single-threaded local engines — the
    * same algorithms without Spark's fixed per-job overhead, comparable to
    * the paper's single-core C++ setup. The protocol is identical: exact
    * ground truth from AllPairs, approximate methods repeated until recall ≥
    * target, preprocessing untimed.
    */
  def measureLocal(name: String, recs: IndexedSeq[SetRec], lambda: Double,
                   p: CPSParams = CPSParams(), recallTarget: Double = 0.9,
                   maxReps: Int = 20): Measurement = {
    val (truthPairs, allSecs) = time(AllPairsLocal.selfJoin(recs, lambda))
    val embedded = EmbeddedRec.embedAll(recs, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq // untimed
    val joins = Joins(embedded,
      reps => collect(emit => reps.foreach(CPSJoinLocal.runRep(embedded, lambda, p, _, NullStats, emit))),
      () => (0L, 0L, 0L),
      k => reps => collect(emit => reps.foreach(MinHashLSHLocal.runRep(embedded, lambda, k, _, p, NullStats, emit))))
    protocol(name, lambda, AlgoRun(allSecs, 1.0, 1, truthPairs.size), truthPairs.keySet, joins, p,
      recallTarget, maxReps)
  }

  /** The deduplicated pairs a local run emits. */
  private def collect(run: ((Long, Long, Double) => Unit) => Unit): Map[(Long, Long), Double] = {
    val out = mutable.HashMap.empty[(Long, Long), Double]
    run((a, b, s) => out.update((a, b), s))
    out.toMap
  }

  /** Environment knobs shared by bench suites and jobs. */
  def scale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)
  def datasetFilter: Option[Set[String]] =
    sys.env.get("REPRO_DATASETS").map(_.split(",").map(_.trim.toUpperCase).toSet)
  def selectedDatasets: IndexedSeq[Datasets.DatasetDef] =
    datasetFilter.fold(Datasets.all)(f => Datasets.all.filter(d => f.contains(d.name.toUpperCase)))
}
