(* Clocks, process counters and the robust estimators the workloads
   share.  Wall time only: on a shared 2-vCPU KVM guest, process CPU
   time tracked wall time to the microsecond, so it removes none of the
   noise (which comes from neighbours contending for caches and memory,
   not from descheduling). *)

let now = Unix.gettimeofday

let status_kb field =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix line ->
            let rest = String.sub line (String.length prefix)
                (String.length line - String.length prefix) in
            Scanf.sscanf rest " %d kB" Fun.id
        | _ -> scan ()
        | exception End_of_file -> 0
      in
      scan ())

(* Current resident set (VmRSS), in MB. *)
let rss_mb () = float_of_int (status_kb "VmRSS") /. 1024.

(* The largest resident set seen at the points the workloads sample it:
   after every set-up phase, reference run, cell pass, Service.run, suite
   section and obs export.  The kernel's VmHWM is no substitute: Linux
   raises it only when memory is unmapped, so a peak that is not followed
   by an unmap goes unrecorded; on replay at one seed it read 36.6, 39.4,
   43.0 and 45.0 MB in four runs. *)
let rss_peak = ref 0.
let sample_rss () = rss_peak := Float.max !rss_peak (rss_mb ())

let peak_rss_mb () =
  sample_rss ();
  !rss_peak

(* Nearest-rank percentile of an int sample, [q] in (0, 1]. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Per-slot minima across reps.  A timed rep is split into slots (blocks
   of trace positions, or one call each); each slot keeps the fastest
   time it was ever measured at, and the estimate of one rep is the sum
   of the slot minima.  Slow host phases last seconds while a slot
   lasts milliseconds, so every slot is likely to have been measured at
   least once in a quiet moment. *)
module Best = struct
  type t = float array

  let create n : t = Array.make n infinity
  let update (t : t) i v = if v < t.(i) then t.(i) <- v
  let sum (t : t) = Array.fold_left ( +. ) 0. t
end

(* Run [f rep] until [seconds] have passed, at least twice; returns the
   number of reps run. *)
let for_seconds ~seconds f =
  let deadline = now () +. seconds in
  let rep = ref 0 in
  while !rep < 2 || now () < deadline do
    f !rep;
    incr rep
  done;
  !rep

(* Minor words and GC counts over a thunk. *)
type gc_delta = { words : float; minor_gcs : int; major_gcs : int }

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let r = f () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  ( r,
    {
      words = w1 -. w0;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
    } )


(* A fixed reference kernel, run between the timed slots.  Host slow
   phases last about a minute and slow every section of the work alike
   (up to 2x), so a whole run can sit in one; no estimator over the
   work's own times escapes that.  The kernel is plain Stdlib code of the
   same kind as the work (hash-table probes, small allocations, a sort
   over a cache-resident set), lives here so that no change to lib/ can
   move it, and slows with the host: its fastest time over a run tells
   how fast the host was when the work's slots were at their fastest.
   Rescaling a time by it turns wall seconds into seconds at the speed of
   a host where the kernel takes [reference_s]. *)
module Kernel = struct
  let table : (int, float) Hashtbl.t = Hashtbl.create 4096

  let run () =
    Hashtbl.reset table;
    let x = ref 12345 and acc = ref 0. and pairs = ref [] in
    for i = 0 to 20_000 do
      x := ((!x * 1103515245) + 12345) land 0xFFFFFF;
      let key = !x land 4095 in
      (match Hashtbl.find_opt table key with
      | Some v ->
          acc := !acc +. v;
          Hashtbl.replace table key ((v *. 0.5) +. 1.)
      | None -> Hashtbl.add table key (float_of_int i));
      if i land 7 = 0 then pairs := (key, !acc) :: !pairs
    done;
    let a = Array.of_list !pairs in
    Array.sort compare a;
    ignore (Sys.opaque_identity a)

  (* about the kernel's fastest time on a quiet 2-vCPU Sapphire Rapids
     KVM guest *)
  let reference_s = 2.5e-3

  type t = { mutable best : float }

  let create () = { best = infinity }

  let sample t =
    let t0 = now () in
    run ();
    let dt = now () -. t0 in
    if dt < t.best then t.best <- dt

  let rescale t seconds = seconds *. reference_s /. t.best
end

(* The raw figures behind the rescaled end-to-end times, and the
   traced ÷ untraced rep estimate. *)
let bench_layer ~setup_wall_s ~rep_wall_s ~(kernel : Kernel.t) ~overhead =
  [
    ("bench.setup_wall_s", setup_wall_s);
    ("bench.rep_wall_s", rep_wall_s);
    ("bench.kernel_s", kernel.best);
    ("bench.trace_overhead", overhead);
  ]
