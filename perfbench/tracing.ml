(* Benchmark-side spans: name, start, end and parent, recorded around
   the calls the benchmark makes into the library, kept in memory and
   written as Chrome trace-event JSON when the run ends.  Nothing inside
   lib/ is instrumented.  With recording off, [timed] only reads the
   clock twice. *)

type span = { id : int; name : string; start : float; stop : float; parent : int }

let recording = ref false
let next_id = ref 0
let open_spans : int list ref = ref []
let spans : span list ref = ref []

let start () = recording := true
let stop () = recording := false

(* [timed name f] runs [f] and returns its result with its wall time in
   seconds; while recording, the call is also logged as a span nested
   under the innermost open one. *)
let timed name f =
  if not !recording then begin
    let t0 = Measure.now () in
    let r = f () in
    (r, Measure.now () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    open_spans := id :: !open_spans;
    let t0 = Measure.now () in
    let close () =
      let t1 = Measure.now () in
      open_spans := List.tl !open_spans;
      spans := { id; name; start = t0; stop = t1; parent } :: !spans;
      t1 -. t0
    in
    match f () with
    | r -> (r, close ())
    | exception e ->
        ignore (close ());
        raise e
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds from the
   first span); the span id and its parent's id ride in [args]. *)
let write_chrome path =
  let all = List.rev !spans in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d}}"
            (json_string s.name)
            ((s.start -. origin) *. 1e6)
            ((s.stop -. s.start) *. 1e6)
            s.id s.parent)
        all;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
