let cycles_of_ns ~ghz ns = int_of_float (Float.round (ns *. ghz))
let cycles_of_us ~ghz us = cycles_of_ns ~ghz (us *. 1e3)
let ns_of_cycles ~ghz c = float_of_int c /. ghz
let us_of_cycles ~ghz c = ns_of_cycles ~ghz c /. 1e3
