(* The [suite] workload: the Suite.all sections rendered serially at
   Quick size through Report.run_and_render, the text
   `experiments --quick` prints. *)

module A = Ccache_analysis
module Obs = Ccache_obs
module Best = Measure.Best

(* MD5 of each section's text as `experiments.exe --quick <id>` prints
   it.  Concatenated in Suite.all order they are `experiments --quick`
   stdout, whose MD5 is [suite_md5]. *)
let section_md5 =
  [
    ("e1", "27ac6daae39128240692d74130749965");
    ("e2", "f45148a32b0da374983255ffd352ecfc");
    ("e3", "4fc0a685011ed1664e2285fcfb673df6");
    ("e4", "77064cd175d5a811ed53483f3a1d7952");
    ("e5", "8a617a44965c30e8eda6dcbb03acde09");
    ("e6", "d5b7b28d903ac532ab264e21cb9ead1a");
    ("e7", "023cc407d67899370213f0867a7633a4");
    ("e8", "858c0dd8ae704e5db926f6132606a173");
    ("e9", "4a66bd4b07915f1848eda2cd08333e3d");
    ("e10", "65a4a5f64debdc6c675d76f5625bc87b");
    ("e11", "84f5027659cf1f845e475f58f97d5ab4");
    ("e12", "8dcfb1e712795e6a6afa6eeeb0b184c0");
    ("e13", "b2b9c7cc0679c5d4b88c0c64977c2d80");
    ("e14", "26ec1af5c48c8c10c9125fd483b8a9e3");
    ("e15", "a518c5930b2e0f104db0674d059d8ba7");
  ]

let suite_md5 = "e43f2734779d3fbd40ddd628444509e4"

let sections = A.Suite.all
let ids = List.map (fun (e : A.Experiment.t) -> e.id) sections

(* Sections whose single call lasts 0.3 s or more at Quick size: about
   85 % of a suite pass between them.  Host slow phases last minutes
   and slow such a call by up to 60 %, and a run holds too few of them
   for any estimator to be steady (ten 25 s runs read 2.0 to 3.7 s per
   pass).  The timed reps therefore render the other twelve; these
   three are rendered and checked once per run, and timed in the traced
   run. *)
let long_ids = [ "e2"; "e12"; "e13" ]

let timed_sections =
  List.filter (fun (e : A.Experiment.t) -> not (List.mem e.id long_ids)) sections

let long_sections =
  List.filter (fun (e : A.Experiment.t) -> List.mem e.id long_ids) sections

let md5 s = Digest.to_hex (Digest.string s)

let render out (e : A.Experiment.t) =
  let text, dt =
    Tracing.timed ("Report.run_and_render " ^ e.id) (fun () ->
        A.Report.run_and_render ~size:A.Experiment.Quick e)
  in
  Measure.sample_rss ();
  let want = List.assoc e.id section_md5 in
  Outcome.expect out (md5 text = want)
    (Printf.sprintf "suite: %s report MD5 %s <> expected %s" e.id (md5 text) want);
  (text, dt)

(* Every section once, in order: each section's text and the whole
   report's bytes must match `experiments --quick`.  Returns each
   section's time. *)
let verify out =
  let parts = List.map (render out) sections in
  let whole = md5 (String.concat "" (List.map fst parts)) in
  Outcome.expect out (whole = suite_md5)
    (Printf.sprintf "suite: report MD5 %s <> expected %s" whole suite_md5);
  List.map snd parts

(* Engine requests and misses of the timed sections, read from the
   library's own obs counters (engine/<policy>/requests, .../misses). *)
let engine_counts () =
  let snap = Obs.Metrics.snapshot () in
  let sum suffix =
    List.fold_left
      (fun acc (name, v) ->
        if String.starts_with ~prefix:"engine/" name && String.ends_with ~suffix name
        then acc + v
        else acc)
      0 snap.counters
  in
  (sum "/requests", sum "/misses")

(* Set-up: the timed sections once with obs recording on, to count the
   engine requests and misses the rep figures are divided by, each
   section followed by one reference kernel.  Returns the counts and
   each section's time. *)
let setup_once out ~kernel =
  Gc.compact ();
  Obs.Metrics.reset ();
  Obs.Control.enable ();
  let times, _ =
    Tracing.timed "setup" (fun () ->
        List.map
          (fun e ->
            let t = snd (render out e) in
            Measure.Kernel.sample kernel;
            t)
          timed_sections)
  in
  Obs.Control.disable ();
  let counts = engine_counts () in
  Obs.Metrics.reset ();
  (counts, times)

(* Timed reps over the timed sections; each section keeps its fastest
   time and is followed by one reference kernel.  Returns the slots, the
   rep count, the fewest minor words of a rep and the GC counts of the
   last rep. *)
let reps out ~seconds ~kernel =
  let best = Best.create (List.length timed_sections) in
  let words = ref infinity and gc = ref (0, 0) in
  let n =
    Measure.for_seconds ~seconds (fun _ ->
        Gc.full_major ();
        let w = ref 0. and minor = ref 0 and major = ref 0 in
        List.iteri
          (fun i e ->
            let (_, dt), d = Measure.gc_delta (fun () -> render out e) in
            Best.update best i dt;
            w := !w +. d.words;
            minor := !minor + d.minor_gcs;
            major := !major + d.major_gcs;
            Measure.Kernel.sample kernel)
          timed_sections;
        words := Float.min !words !w;
        gc := (!minor, !major))
  in
  (best, n, !words, !gc)

let run out ~seed:_ ~seconds ~traced ~dir:_ =
  (* set up five times (a fixed count, as in [Inputs.setup]); set-up
     time is the sum of each section's fastest time, as for the timed
     reps *)
  let setup_best = Best.create (List.length timed_sections) in
  let setup_kernel = Measure.Kernel.create () in
  let counts = ref [] in
  while List.length !counts < 5 do
    let c, times = setup_once out ~kernel:setup_kernel in
    List.iteri (Best.update setup_best) times;
    counts := c :: !counts
  done;
  let requests, misses = List.hd !counts in
  Outcome.expect out
    (requests > 0 && List.for_all (( = ) (requests, misses)) !counts)
    "suite: engine request counts differ across set-ups or are zero";
  let setup_wall_s = Best.sum setup_best in
  let setup_s = Measure.Kernel.rescale setup_kernel setup_wall_s in
  let whole_pass = verify out in
  Tracing.stop ();
  let kernel = Measure.Kernel.create () in
  let best, nreps, words, gc =
    reps out ~seconds:(if traced then seconds /. 2. else seconds) ~kernel
  in
  let rep_wall_s = Best.sum best in
  let rep_s = Measure.Kernel.rescale kernel rep_wall_s in
  Outcome.log
    "suite: %d reps of %d sections, rep %.4f s wall, %.4f s rescaled (kernel %.5f s), %d \
     engine requests; whole pass %.3f s"
    nreps (List.length timed_sections) rep_wall_s rep_s kernel.best requests
    (List.fold_left ( +. ) 0. whole_pass);
  let fr = float_of_int requests in
  Outcome.e2e out
    [
      ("setup_s", setup_s);
      ("rep_s", rep_s);
      ("req_per_s", fr /. rep_s);
      ("miss_ratio", float_of_int misses /. fr);
      ("alloc_w_per_req", words /. fr);
      ("alloc_mw", words /. 1e6);
      ("peak_rss_mb", Measure.peak_rss_mb ());
      (* the suite sheds nothing and queues nothing *)
      ("admit_share", 1.0);
      ("latency_p50_rounds", 1.0);
      ("latency_p999_rounds", 1.0);
    ];
  if traced then begin
    Tracing.start ();
    let tbest, _, _, _ = reps out ~seconds:(seconds /. 2.) ~kernel:(Measure.Kernel.create ()) in
    let long_best = Best.create (List.length long_sections) in
    for _ = 1 to 2 do
      List.iteri (fun i e -> Best.update long_best i (snd (render out e))) long_sections
    done;
    let times =
      List.mapi (fun i (e : A.Experiment.t) -> (e.id, tbest.(i))) timed_sections
      @ List.mapi (fun i (e : A.Experiment.t) -> (e.id, long_best.(i))) long_sections
    in
    Outcome.layer out
      (List.map (fun id -> (Printf.sprintf "suite.%s.s" id, List.assoc id times)) ids);
    Outcome.layer out
      ([
         ("gc.minor_collections", float_of_int (fst gc));
         ("gc.major_collections", float_of_int (snd gc));
       ]
      @ Measure.bench_layer ~setup_wall_s ~rep_wall_s ~kernel
          ~overhead:(Best.sum tbest /. rep_wall_s))
  end
