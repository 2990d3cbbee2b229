(** Append-only JSONL journal: the engine's results store.

    One record per line, [{"k":"<key>","v":"<payload>"}]. Writers flush
    after every record, so a killed run's journal is a valid prefix; a line
    truncated mid-write is skipped on load. The journal stores opaque
    strings: encoding and decoding payloads belongs to its readers, who
    take a key's first record that decodes ({!Batch.first_good}). *)

type entry = { key : string; value : string }

type t
(** An open journal writer (append mode). *)

val open_append : string -> t
(** Open (creating if needed) for appending. A torn last line is ended
    first, so the next record starts a line of its own. *)

val append : t -> key:string -> value:string -> unit
(** Write one record and flush. *)

val load : string -> entry list
(** All well-formed records, in file order; [[]] if the file does not
    exist. Any other line (a truncated tail from a mid-write kill, or an
    error record [{"k":..,"e":..}] of older journals) is skipped, not an
    error. *)
