(** Imperative design builder (a tiny Chisel-like construction API).

    Typical use:
    {[
      let b = Builder.create "blinker" in
      let tick = Builder.input b "tick" 1 in
      let q = Builder.reg_declare b "led" 1 ~reset:Sync_reset in
      Builder.reg_connect b "led" Expr.(mux tick (not_ q) q);
      Builder.output b "out" q;
      let design = Builder.finish b
    ]} *)

type t

val create : string -> t

val input : t -> string -> int -> Expr.t
(** Declare an input port; returns the signal expression. *)

val net : t -> string -> Expr.t -> Expr.t
(** Declare a named internal wire with the given driver; returns the signal
    expression (useful as an annotation anchor or a fanout point). *)

val output : t -> string -> Expr.t -> unit

val reg_declare :
  t ->
  ?reset:Design.reset_kind ->
  ?init:Bitvec.t ->
  ?is_config:bool ->
  string ->
  width:int ->
  Expr.t
(** Declare a register and get its [q] before the [d] is known (for feedback
    paths). [reset] defaults to [Sync_reset]; [init] defaults to zero. *)

val reg_connect : t -> ?enable:Expr.t -> string -> Expr.t -> unit
(** Connect the data input of a declared register.
    @raise Invalid_argument if unknown or already connected. *)

val reg :
  t ->
  ?reset:Design.reset_kind ->
  ?init:Bitvec.t ->
  ?enable:Expr.t ->
  string ->
  d:Expr.t ->
  Expr.t
(** Declare-and-connect convenience for feedforward registers. *)

val rom : t -> string -> width:int -> Bitvec.t array -> unit
val config_table : t -> string -> width:int -> depth:int -> unit

val read_table : t -> string -> Expr.t -> Expr.t
(** Asynchronous read expression; address width must match the declared
    depth. *)

val annotate : t -> Annot.t -> unit

val finish : t -> Design.t
(** Assembles the design through {!Design.make}, which reports every
    design-level error (duplicate registers and tables among them).
    @raise Invalid_argument on dangling registers or a design {!Design.make}
    refuses. *)
