(** Content-addressed result cache: an in-memory table, optionally backed by
    an on-disk directory.

    Disk entries are one file per key ([<dir>/<key>.json], the
    {!Summary.to_string} form) written atomically: the bytes go to a unique
    temp file in the same directory which is then [rename]d into place, so
    concurrent processes sharing a cache directory see either nothing or a
    complete entry. Disk failures (unwritable directory, corrupt entry) are
    soft: the cache degrades to memory-only rather than failing the run.

    A corrupt entry is {e quarantined}: renamed to [<key>.corrupt] so it is
    not silently re-read (and missed) on every future lookup, and counted by
    {!quarantined}. The next store for that key repopulates it normally.

    Hits, misses and stores are counted process-wide by the
    [engine.cache.*] {!Obs.Metrics} counters; the engine keeps its own
    books. *)

type t

val create : ?dir:string -> unit -> t
(** [dir], when given, is created (recursively) on first use and read
    through: a key missing in memory is looked up on disk, and stores are
    written through to disk. Raises [Invalid_argument] if [dir] exists but
    is not a directory. *)

val find : t -> string -> (Summary.t * [ `Memory | `Disk ]) option
(** A disk hit is also kept in memory, so the next lookup is a [`Memory]
    hit. *)

val store : t -> string -> Summary.t -> unit

val quarantined : t -> int
(** Corrupt disk entries this cache renamed to [<key>.corrupt]. *)
