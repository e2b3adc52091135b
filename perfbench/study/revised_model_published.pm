# Revised model carrying the published path coefficients.
var X1 "Motivation"
var X2 "Attitude Towards Mathematics"
var X3 "Learning Style"
var X4 "Teaching Strategies"
var Y "Mathematics Performance"
path X1 -> X2 : 0.531
path X1 -> X3 : 0.405
path X2 -> X3 : 0.204
path X1 -> X4 : 0.239
path X2 -> X4 : 0.216
path X3 -> X4 : 0.217
path X2 -> Y : 0.145
path X3 -> Y : 0.084
path X4 -> Y : 0.782
