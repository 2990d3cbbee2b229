module Span = Span
module Metrics = Metrics
module Trace = Trace

let set_enabled = Ctl.set_enabled

let enabled = Ctl.on

let reset () =
  Span.reset ();
  Metrics.reset ()
