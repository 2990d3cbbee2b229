(** Designs as data: S-expression serialization of {!Design.t}.

    A chip generator's intermediate artifacts should be inspectable and
    diffable; this module gives every design a stable textual form that
    reads back exactly ([read (write d)] reproduces the design up to
    expression structure — checked by roundtrip property tests).

    {!write} puts each section entry on its own line and prints everything
    in it flat, one space between atoms. The same text is the design's part
    of the engine's cache key ([Engine.Fingerprint.job]). For example:
    {v
(design (name ctr)
 (inputs
  (en 1))
 (nets)
 (regs
  (q 3 (reset sync) (init 3'b000) (config false) (enable (sig en 1)) (add (sig q 3) (const 3'b001))))
 (tables)
 (outputs
  (count 3 (sig q 3)))
 (annots))
    v}
    {!read} ignores whitespace between atoms, so any other layout of the
    same atoms reads back too. *)

val write : Design.t -> string
(** @raise Invalid_argument on a name that is empty or contains
    whitespace, [(], [)] or [;]: such a name would not read back as itself. *)

exception Parse_error of string

val read : string -> Design.t
(** Parses and {!Design.validate}s.
    @raise Parse_error on syntax errors and on designs that do not
    validate (the message is {!Design.validate}'s). *)

val of_file : string -> Design.t
