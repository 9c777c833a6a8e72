(** Experiment descriptors (see DESIGN.md Section 4); the suite itself
    is the static list in [Suite].

    Each experiment is a pure function from a size knob to a set of
    tables; `bin/experiments.ml` prints them and EXPERIMENTS.md records
    a reference run.  [Quick] sizes keep the full suite under ~a minute
    for `dune runtest`-adjacent use; [Full] sizes are what
    EXPERIMENTS.md reports. *)

type size = Quick | Full

type output = {
  id : string;
  title : string;
  tables : Ccache_util.Ascii_table.t list;
  notes : string list;  (** prose conclusions, one line each *)
}

type t = {
  id : string;
  title : string;
  claim : string;  (** which paper statement this exercises *)
  run : size -> output;
}

let output ~id ~title ?(notes = []) tables = { id; title; tables; notes }
