type t = { name : string; width : int }

let make name width =
  if width <= 0 then invalid_arg "Signal.make: width must be positive";
  if name = "" then invalid_arg "Signal.make: empty name";
  { name; width }
