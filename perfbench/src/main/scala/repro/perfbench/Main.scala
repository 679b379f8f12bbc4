package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import scala.collection.mutable

/** One benchmark workload: a Table II dataset shape at λ = 0.5 and an engine
  * family. `gen(n, seed)` makes its input.
  */
final case class Workload(name: String, dataset: String, n: Int, spark: Boolean,
                          gen: (Int, Long) => IndexedSeq[SetRec])

object Workload {
  private val aol = Datasets.byName("AOL")

  val all: Seq[Workload] = Seq(
    Workload("aol-local", "AOL", 12000, spark = false, aol.generate),
    Workload("aol-spark", "AOL", 1000, spark = true, aol.generate),
  )
}

final case class Opts(workload: String = "", seed: Long = 1L, seconds: Double = 10.0, trace: Boolean = false,
                      smoke: Boolean = false, workDir: String = ".", sourceId: String = "unknown")

object Opts {
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case Nil => o
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest => parse(rest, o.copy(trace = v == "1"))
    case "--smoke" :: rest => parse(rest, o.copy(smoke = true))
    case "--work-dir" :: v :: rest => parse(rest, o.copy(workDir = v))
    case "--source-id" :: v :: rest => parse(rest, o.copy(sourceId = v))
    case a :: _ => throw new IllegalArgumentException(s"unknown argument $a")
  }
}

/** Generated input of one run and its exact answer. */
final case class Input(recs: IndexedSeq[SetRec], truth: Map[(Long, Long), Double]) {
  val tokens: Map[Long, Array[Int]] = recs.iterator.map(r => r.id -> r.tokens).toMap
  val totalTokens: Long = recs.iterator.map(_.tokens.length.toLong).sum
}

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  * Prints a report and, as its last line, every metric's samples as JSON.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args.toList)
    val wl = Workload.all.find(_.name == o.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload '${o.workload}'"))
    val bench = new Bench(wl, o)
    try println(bench.run())
    finally bench.stopSpark()
  }
}

final class Bench(wl: Workload, o: Opts) {
  val lambda = 0.5
  val recallTarget = 0.9
  val maxCpReps = 20
  val p: CPSParams = CPSParams()
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val shufflePartitions = 16
  val minCallS = 0.2
  val n: Int = if (o.smoke) 300 else wl.n

  private var spark: SparkSession = _
  private var recorder: JobRecorder = _
  private var calls = 0
  private var failures = 0

  private def check(ok: Boolean, what: => String): Unit = {
    calls += 1
    if (!ok) { failures += 1; Console.err.println(s"[perfbench] FAILED: $what") }
  }

  // ------------------------------------------------------------ session

  private def startSpark(): Unit = {
    stopSpark()
    spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", s"${o.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${o.workDir}/spark-warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    recorder = new JobRecorder
    spark.sparkContext.addSparkListener(recorder)
  }

  def stopSpark(): Unit = if (spark != null) { spark.stop(); spark = null }

  private def engine: Engine =
    if (wl.spark) new SparkEngine(spark, lambda, p, recallTarget) else new LocalEngine(lambda, p, recallTarget)

  // ------------------------------------------------------------- checks

  private def exactJ(x: Array[Int], y: Array[Int]): Double = {
    var i = 0; var j = 0; var inter = 0
    while (i < x.length && j < y.length) {
      if (x(i) == y(j)) { inter += 1; i += 1; j += 1 }
      else if (x(i) < y(j)) i += 1
      else j += 1
    }
    inter.toDouble / (x.length + y.length - inter)
  }

  /** Pairs whose exact Jaccard is below λ or differs from the reported value. */
  private def badPairs(in: Input, found: collection.Map[(Long, Long), Double]): Int =
    found.count { case ((a, b), s) =>
      val j = exactJ(in.tokens(a), in.tokens(b))
      a >= b || j < lambda || math.abs(j - s) > 1e-12
    }

  private def samePairs(a: collection.Map[(Long, Long), Double], b: collection.Map[(Long, Long), Double]): Boolean =
    a.size == b.size && a.forall { case (k, s) => b.get(k).exists(t => math.abs(s - t) <= 1e-12) }

  private def recallOf(found: collection.Map[(Long, Long), Double], truth: Map[(Long, Long), Double]): Double =
    if (truth.isEmpty) 1.0 else truth.keysIterator.count(found.contains).toDouble / truth.size

  // -------------------------------------------------------------- trial

  /** CP repetition batches, as in `Harness`: 4, then 3 at a time, at most 20. */
  private def cpBatches: Iterator[Seq[Int]] =
    (Iterator(0 until 4) ++ (4 until maxCpReps by 3).iterator.map(s => s until math.min(maxCpReps, s + 3))).map(_.toSeq)

  /** MH repetition batches of L(k) = `lWorst` repetitions (the count that
    * reaches recall φ in expectation for a pair at J = λ), at most 4·L(k).
    * `Harness` uses L/4; on AOL the repetitions needed (16 to 18 of L = 19)
    * then straddle a batch boundary and the timed work jumps between seeds.
    */
  private def mhBatches(lWorst: Int): Iterator[Seq[Int]] = (0 until 4 * lWorst).grouped(lWorst).map(_.toSeq)

  /** Run batches of repetitions until recall reaches the target. Only the
    * batches are timed; the recall checks between them are not.
    */
  private def toRecall(batches: Iterator[Seq[Int]], in: Input, found: mutable.HashMap[(Long, Long), Double],
                       spanName: String, tr: Option[Tracer])(run: Seq[Int] => Unit): (Double, Int, Double) = {
    var secs = 0.0
    var reps = 0
    var recall = recallOf(found, in.truth)
    while (recall < recallTarget && batches.hasNext) {
      val b = batches.next()
      val t0 = System.nanoTime()
      tr.fold(run(b))(_.span(spanName)(run(b)))
      secs += (System.nanoTime() - t0) / 1e9
      reps += b.size
      recall = recallOf(found, in.truth)
    }
    (secs, reps, recall)
  }

  private def timed[A](tr: Option[Tracer], name: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = tr.fold(body)(_.span(name)(body))
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Run `call` r times; returns the last result and the mean seconds per
    * call. Earlier results are handed to `discard`.
    */
  private def repeat[A](r: Int)(call: => (A, Double))(discard: A => Unit): (A, Double) = {
    var last = call
    var secs = last._2
    for (_ <- 1 until r) {
      discard(last._1)
      last = call
      secs += last._2
    }
    (last._1, secs / r)
  }

  /** CP to recall: ((reps, recall, pairs), join seconds). */
  private def cpToRecall(eng: Engine, pl: Payload, in: Input, tr: Option[Tracer]) = {
    val found = mutable.HashMap.empty[(Long, Long), Double]
    val (secs, reps, recall) = toRecall(cpBatches, in, found, "cp.batch", tr)(b => eng.cpReps(pl, b, found, tr))
    check(recall >= recallTarget && badPairs(in, found) == 0,
      s"cp: recall $recall after $reps reps, ${badPairs(in, found)} wrong pairs")
    ((reps, recall, found), secs)
  }

  /** MH to recall, with k chosen first: ((k, reps, pairs, choose-k seconds), join seconds). */
  private def mhToRecall(eng: Engine, pl: Payload, in: Input, tr: Option[Tracer]) = {
    val (k, chooseKS) = timed(tr, "mh.choose_k")(eng.chooseK(pl))
    val lWorst = repro.baselines.MinHashLSHLocal.repetitionsFor(recallTarget, lambda, k)
    val found = mutable.HashMap.empty[(Long, Long), Double]
    val (secs, reps, recall) = toRecall(mhBatches(lWorst), in, found, "mh.batch", tr)(b => eng.mhReps(pl, k, b, found, tr))
    check(recall >= recallTarget && badPairs(in, found) == 0,
      s"mh: recall $recall after $reps reps, ${badPairs(in, found)} wrong pairs")
    ((k, reps, found, chooseKS), chooseKS + secs)
  }

  private def allJoin(eng: Engine, in: Input, tr: Option[Tracer]) = {
    val (res, secs) = timed(tr, "all.join")(eng.all(in.recs, tr))
    check(samePairs(res, in.truth), s"all: ${res.size} pairs, exact join has ${in.truth.size}")
    (res, secs)
  }

  /** One trial: embed → CP to recall → MH to recall → ALL, every output
    * checked. Each step runs `perSample(step)` times and reports its mean time
    * per call. Returns the end-to-end samples and, if traced, the per-layer ones.
    */
  private def trial(eng: Engine, in: Input, tr: Option[Tracer],
                    perSample: String => Int = _ => 1): collection.Map[String, Double] = {
    val out = mutable.LinkedHashMap.empty[String, Double]
    val (pl, embedS) = repeat(perSample("embed"))(timed(tr, "embed")(eng.embed(in.recs)))(eng.release)
    val ((cpReps, cpRecall, cpFound), cpS) = repeat(perSample("cp"))(cpToRecall(eng, pl, in, tr))(_ => ())
    val ((k, mhReps, mhFound, chooseKS), mhS) = repeat(perSample("mh"))(mhToRecall(eng, pl, in, tr))(_ => ())
    val (allRes, allS) = repeat(perSample("all"))(allJoin(eng, in, tr))(_ => ())

    System.gc(); System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    java.lang.ref.Reference.reachabilityFence(Seq(pl, cpFound, mhFound, allRes))
    eng.release(pl)

    out ++= Seq("cp_e2e_s" -> (embedS + cpS), "cp_join_s" -> cpS, "embed_s" -> embedS,
      "mh_join_s" -> mhS, "all_join_s" -> allS, "heap_mb" -> heapMb)

    tr.foreach { t =>
      val hashPerToken = p.t + p.sketchBits
      // The local tree's shape and time; on Spark it runs on the same payload.
      val ((localReps, localRecall, localFound), localCpS) =
        if (wl.spark) cpToRecall(new LocalEngine(lambda, p, recallTarget), pl, in, tr)
        else ((cpReps, cpRecall, cpFound), cpS)
      val tree = t.tree
      val minhashS =
        if (wl.spark) timed(tr, "minhash.embed")(EmbeddedRec.embedAll(in.recs, new MinHasher(p.t, p.ell, p.seed)))._2
        else embedS
      out ++= Seq(
        "minhash.embed_s" -> minhashS,
        "minhash.tokens" -> in.totalTokens.toDouble,
        "minhash.ns_per_token" -> minhashS * 1e9 / in.totalTokens,
        "minhash.hash_evals" -> in.totalTokens.toDouble * hashPerToken,
        "cp.reps" -> localReps.toDouble,
        "cp.recall" -> localRecall,
        "cp.nodes" -> tree.nodes.toDouble,
        "cp.leaf_nodes" -> tree.leafNodes.toDouble,
        "cp.depth_max" -> tree.depthMax.toDouble,
        "cp.bucket_p50" -> tree.bucketP50,
        "cp.bucket_max" -> tree.bucketMax,
        "cp.bruteforced_recs" -> tree.bruteforcedRecs.toDouble,
        "cp.split_recs" -> tree.splitRecs.toDouble,
        "cp.leaf_s" -> tree.leafNs / 1e9,
        "cp.filter_s" -> tree.filterNs / 1e9,
        "cp.rest_s" -> (localCpS - (tree.leafNs + tree.filterNs) / 1e9),
        "cp.pre" -> t.cp.pre.toDouble,
        "cp.cand" -> t.cp.cand.toDouble,
        "cp.results_raw" -> t.cp.res.toDouble,
        "cp.sketch_pass" -> ratio(t.cp.cand, t.cp.pre),
        "cp.yield" -> ratio(t.cp.res, t.cp.cand),
        "cp.dup_ratio" -> ratio(t.cp.res, localFound.size.toLong),
        "mh.pre" -> t.mh.pre.toDouble,
        "mh.cand" -> t.mh.cand.toDouble,
        "mh.results_raw" -> t.mh.res.toDouble,
        "mh.k" -> k.toDouble,
        "mh.reps" -> mhReps.toDouble,
        "mh.choose_k_s" -> chooseKS,
        "all.pre" -> t.all.pre.toDouble,
        "all.cand" -> t.all.cand.toDouble,
        "all.results" -> t.all.res.toDouble,
        "all.cand_per_result" -> ratio(t.all.cand, t.all.res),
      )
      for ((algo, joinS) <- Seq("cp" -> cpS, "mh" -> mhS, "all" -> allS)) {
        val m = if (wl.spark) recorder.summary(spark, algo, joinS, cores) else Map.empty[String, Double]
        for (f <- JobRecorder.fields) out(s"spark.$algo.$f") = m.getOrElse(f, 0.0)
      }
      out("spark.broadcast_s") = if (wl.spark) math.max(0.0, embedS - minhashS) else 0.0
      out("spark.cp.overhead_x") = if (wl.spark) cpS / localCpS else 0.0
    }
    out
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b

  // -------------------------------------------------------------- gates

  /** Checks run once per run, after set-up. */
  private def gates(in: Input): Unit = {
    val embedded = EmbeddedRec.embedAll(in.recs, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq
    // The traced tree copy must reproduce runRep's pairs and counters exactly.
    for (rep <- 0 until 2) {
      val (a, b) = (new Counts, new Counts)
      val pa = mutable.ArrayBuffer.empty[(Long, Long, Double)]
      val pb = mutable.ArrayBuffer.empty[(Long, Long, Double)]
      CPSJoinLocal.runRep(embedded, lambda, p, rep, a, (x, y, s) => { pa += ((x, y, s)); () })
      TracedCP.runRep(embedded, lambda, p, rep, b, (x, y, s) => { pb += ((x, y, s)); () }, new TreeStats, new Spans, 0)
      check(pa.sorted == pb.sorted && a.same(b), s"traced CP copy differs from runRep on rep $rep: runRep $a, copy $b")
    }
    if (wl.spark) {
      val reps = 0 until 4
      val local = mutable.HashMap.empty[(Long, Long), Double]
      for (r <- reps) CPSJoinLocal.runRep(embedded, lambda, p, r, NullStats,
        (x, y, s) => { local.update((math.min(x, y), math.max(x, y)), s); () })
      val bc = CPSJoinSpark.broadcastPayload(spark, in.recs, p)
      val dist = try new CPSJoinSpark(spark, bc, lambda, p).run(reps) finally bc.destroy()
      check(samePairs(dist, local), s"CPSJoinSpark.run gives ${dist.size} pairs, CPSJoinLocal.runRep ${local.size}")
      val allLocal = repro.baselines.AllPairsLocal.selfJoin(in.recs, lambda)
      check(samePairs(allLocal, in.truth), s"AllPairsLocal gives ${allLocal.size} pairs, exact join ${in.truth.size}")
    }
  }

  // ---------------------------------------------------------------- run

  def run(): String = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val rounds = if (o.smoke) 1 else 3
    // Set-up rounds: session, input, exact answer, one untimed warm-up trial.
    // The once-per-run gates follow the first (cold) round, so the later
    // rounds also warm up whatever code the gates ran.
    val setupS = mutable.ArrayBuffer.empty[Double]
    var in: Input = null
    var warm: collection.Map[String, Double] = null
    var gateS = 0.0
    for (round <- 0 until rounds) {
      val t0 = System.nanoTime()
      if (wl.spark) startSpark()
      val recs = wl.gen(n, o.seed)
      in = Input(recs, ReferenceJoin.selfJoin(recs, lambda))
      warm = trial(engine, in, None)
      setupS += (if (round == 0) (System.currentTimeMillis() - jvmStartMs) / 1e3 else (System.nanoTime() - t0) / 1e9)
      if (round == 0) {
        val g0 = System.nanoTime()
        gates(in)
        gateS = (System.nanoTime() - g0) / 1e9
      }
    }
    // Short steps are repeated within a trial so that one sample measures
    // at least `minCallS` seconds of work.
    val perSample: Map[String, Int] =
      Seq("embed" -> "embed_s", "cp" -> "cp_join_s", "mh" -> "mh_join_s", "all" -> "all_join_s").map { case (step, m) =>
        step -> Seq(1, 2, 5, 10, 20, 50).find(_ * warm(m) >= minCallS).getOrElse(50)
      }.toMap

    // Timed trials; a traced run alternates untraced and traced trials.
    val plain = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val traced = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    var lastSpans: Spans = null
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    var i = 0
    while (System.nanoTime() < deadline || plain.isEmpty || (o.trace && traced.isEmpty)) {
      if (o.trace && i % 2 == 1) {
        val spans = new Spans
        val tr = new Tracer(spans)
        if (wl.spark) recorder.clear()
        val m = tr.span("trial")(trial(engine, in, Some(tr)))
        if (wl.spark) {
          val offsetNs = System.nanoTime() - System.currentTimeMillis() * 1000000L
          for (g <- Seq("cp", "mh", "all"); (a, b) <- recorder.jobIntervals(g))
            spans.add(s"spark.job.$g", 1, a * 1000000L + offsetNs, b * 1000000L + offsetNs)
        }
        m.foreach { case (k, v) => traced.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }
        lastSpans = spans
      } else {
        trial(engine, in, None, perSample).foreach { case (k, v) => plain.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }
      }
      i += 1
    }

    val e2e = mutable.LinkedHashMap("setup_s" -> setupS)
    for (k <- Seq("cp_e2e_s", "cp_join_s", "embed_s", "mh_join_s", "all_join_s", "heap_mb")) e2e(k) = plain(k)
    val metrics: Seq[(String, Seq[Double])] =
      if (!o.trace) e2e.toSeq.map { case (k, v) => k -> v.toSeq }
      else {
        val layer = traced.toSeq.filterNot(kv => e2e.contains(kv._1)).map { case (k, v) => k -> v.toSeq }
        val overhead = median(traced("cp_e2e_s").toSeq) - median(plain("cp_e2e_s").toSeq)
        layer ++ Seq("trace.overhead_s" -> Seq(overhead), "trace.spans" -> Seq(lastSpans.count.toDouble),
          "setup.cold_s" -> Seq(setupS.head))
      }
    if (lastSpans != null) lastSpans.write(s"${o.workDir}/trace-${wl.name}-seed${o.seed}.jsonl")

    val env = Seq(
      "workload" -> Json.str(wl.name), "dataset" -> Json.str(wl.dataset), "seed" -> o.seed.toString,
      "n" -> in.recs.length.toString, "total_tokens" -> in.totalTokens.toString, "lambda" -> lambda.toString,
      "results" -> in.truth.size.toString, "cores" -> cores.toString, "master" -> Json.str(s"local[$cores]"),
      "shuffle_partitions" -> shufflePartitions.toString,
      "heap_max_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "spark" -> Json.str(org.apache.spark.SPARK_VERSION), "source" -> Json.str(o.sourceId),
      "params" -> Json.str(p.toString), "setup_rounds" -> setupS.size.toString, "gate_s" -> gateS.toString,
      "calls_per_sample" -> Json.obj(perSample.toSeq.sorted.map { case (k, v) => k -> v.toString }),
      "trials" -> plain.values.headOption.fold(0)(_.size).toString,
      "traced_trials" -> traced.values.headOption.fold(0)(_.size).toString,
      "samples" -> Json.obj(metrics.map { case (k, v) => k -> v.size.toString }),
    )
    println("env " + Json.obj(env))
    for ((k, v) <- metrics) {
      val s = v.sorted
      println(f"$k%-28s median ${median(v)}%14.6f  min ${s.head}%14.6f  max ${s.last}%14.6f  n=${v.size}%d ${Units.of(k)}")
    }
    println(f"error_rate ${ratio(failures.toLong, calls.toLong)}%.6f ($failures failed of $calls calls)")
    // The launcher merges this line from every JVM it forked into the result.
    Json.obj(Seq(
      "attempted" -> calls.toString,
      "failed" -> failures.toString,
      "samples" -> Json.obj(metrics.map { case (k, v) =>
        k -> Json.obj(Seq("unit" -> Json.str(Units.of(k)), "values" -> v.map(Json.num).mkString("[", ", ", "]")))
      }),
    ))
  }

  private def median(v: Seq[Double]): Double = {
    val s = v.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }
}

object Units {
  def of(metric: String): String =
    if (metric.endsWith("_s")) "s"
    else if (metric.endsWith("_mb")) "MB"
    else if (metric.endsWith("_bytes")) "bytes"
    else if (metric.endsWith("ns_per_token")) "ns"
    else if (metric.endsWith("_x") || metric.endsWith("recall") || metric.endsWith("utilization") ||
      metric.endsWith("skew") || metric.endsWith("_pass") || metric.endsWith("yield") ||
      metric.endsWith("_ratio") || metric.endsWith("_per_result")) "ratio"
    else "count"
}

object Json {
  def str(s: String): String = "\"" + s.flatMap {
    case '"' => "\\\""
    case '\\' => "\\\\"
    case c if c < ' ' => f"\\u${c.toInt}%04x"
    case c => c.toString
  } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString
  def obj(kv: Seq[(String, String)]): String = kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
