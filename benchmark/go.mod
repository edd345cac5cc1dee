module orwlplace/benchmark

go 1.24

require orwlplace v0.0.0

replace orwlplace => ../
