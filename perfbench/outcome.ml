(* What a workload hands back to the main program: the operations it checked,
   the failed ones, and its metrics by name (units are declared once,
   in perfbench.ml). *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable e2e : (string * float) list;
  mutable layer : (string * float) list;
}

let create () = { attempted = 0; failed = 0; e2e = []; layer = [] }

(* One checked operation; [errors] are the failed checks' messages. *)
let check t errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    List.iter (fun e -> Printf.eprintf "check failed: %s\n%!" e) errors
  end

let expect t ok msg = check t (if ok then [] else [ msg ])
let e2e t kvs = t.e2e <- t.e2e @ kvs
let layer t kvs = t.layer <- t.layer @ kvs

let log fmt = Printf.eprintf (fmt ^^ "\n%!")
