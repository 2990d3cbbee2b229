(** Append-only JSONL checkpoint journal.

    One record per line: [{"k":"<key>","v":"<payload>"}] for a completed
    item, [{"k":"<key>","e":"<message>"}] for one that settled in error.
    Writers flush after every record, so a killed campaign's journal is a
    valid prefix; a line truncated mid-write is skipped on load. Payload
    encoding/decoding belongs to the caller ({!Batch} takes a codec) —
    the journal stores opaque strings. *)

type entry = { key : string; value : (string, string) result }

type t
(** An open journal writer (append mode). *)

val open_append : string -> t
(** Open (creating if needed) for appending. A torn last line is ended
    first, so the next record starts a line of its own. *)

val append : t -> key:string -> value:(string, string) result -> unit
(** Write one record and flush.
    @raise Invalid_argument after {!close}. *)

val close : t -> unit
(** Idempotent. *)

val load : string -> entry list
(** All well-formed records, in file order; [[]] if the file does not
    exist. Malformed lines (e.g. a truncated tail from a mid-write kill)
    are skipped, not errors. *)
