type t = Complex.t array

let init = Array.init

let of_real x = Array.map (fun re -> { Complex.re; im = 0.0 }) x
