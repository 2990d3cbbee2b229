(** FSM IR: symbolic finite state machines (Mealy form).

    The controller abstraction of Section II-A. A machine has [m] input
    bits, [n] output bits and a list of named states; transition and output
    functions are total over (state, input assignment).

    Two generated implementations, matching the paper's Fig. 6 comparison:
    - {!to_flexible_rtl}: next-state and output logic stored in two
      configuration memories addressed by {state, inputs} (Fig. 2), with
      optional generator-supplied state-vector annotation;
    - {!to_direct_rtl}: the vendor-recommended case-statement style — a
      selector over state codes with per-state input logic (Shannon trees
      over each state's actually-used inputs), carrying a tool-detectable
      state-vector annotation. *)

type t = private {
  name : string;
  num_inputs : int;
  num_outputs : int;
  states : string array;
  reset : int;
  next : int array array;      (** [next.(s).(i)] = successor state index *)
  out : Bitvec.t array array;  (** [out.(s).(i)] = output word *)
}

val make :
  name:string ->
  num_inputs:int ->
  num_outputs:int ->
  states:string array ->
  reset:int ->
  next:int array array ->
  out:Bitvec.t array array ->
  t
(** @raise Invalid_argument on inconsistent geometry, bad state indices or
    duplicate state names. *)

val of_moore :
  name:string ->
  num_inputs:int ->
  num_outputs:int ->
  states:string array ->
  reset:int ->
  next:int array array ->
  moore_out:Bitvec.t array ->
  t
(** Convenience: outputs depend on the state only. *)

val num_states : t -> int

val is_moore : t -> bool
(** Outputs independent of the inputs. A Moore machine's flexible
    implementation uses a compact state-indexed output memory. *)

(** State encodings of the direct style. The paper's Fig. 6 observes that
    state counts that do not fill a binary code space (s ∈ {3, 17})
    synthesize poorly without annotations; encoding choice is the
    generator-side counterpart. The flexible style is always binary. *)
type encoding =
  | Binary
  | Gray     (** same width as binary; adjacent indices differ in one bit *)
  | One_hot  (** |S| bits *)

val state_bits_with : encoding -> t -> int
val encode_with : encoding -> t -> int -> Bitvec.t

val state_bits : t -> int
(** Bits of the binary state encoding, ceil(log2 |S|), minimum 1. *)

val encode : t -> int -> Bitvec.t
(** Binary code of a state index. *)

val state_codes_with : encoding -> t -> Bitvec.t list

val state_codes : t -> Bitvec.t list
(** Codes of all defined states — the state-vector annotation contents. *)

val reachable : t -> int list
(** State indices reachable from reset (graph reachability), ascending. *)

val reachable_codes : t -> Bitvec.t list
(** Codes of reachable states only (the *Manual*-level annotation). *)

val reachable_with : t -> inputs:int list -> int list
(** Reachable states when the environment only ever drives the listed input
    assignments — how a generator proves that a mode (e.g. uncached) cannot
    reach some states. *)

val step : t -> state:int -> input:int -> int * Bitvec.t

val simulate : t -> int list -> Bitvec.t list
(** Outputs along an input trace starting from reset. *)

val input_support : t -> int -> int list
(** Input bits that influence the next state or output in a given state. *)

val to_flexible_rtl : ?annotate:bool -> t -> Rtl.Design.t
(** Ports: input [in] (m bits), output [out] (n bits). The binary-coded
    state register addresses both tables, so the tables are indexed by
    state number directly. [annotate] (default false) adds the generator
    state-vector annotation. Binding the tables with
    {!Synth.Partial_eval.bind_tables} and {!config_bindings} gives the
    fixed (ROM) design. *)

val config_bindings : t -> (string * Bitvec.t array) list
(** Contents for the two configuration memories of the flexible design. *)

val to_direct_rtl : ?encoding:encoding -> t -> Rtl.Design.t
