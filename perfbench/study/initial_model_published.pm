# Initial model carrying the published path coefficients, for reproducing
# the original decomposition and fit-assessment tables as printed.
var X1 "Motivation"
var X2 "Attitude Towards Mathematics"
var X3 "Learning Style"
var X4 "Teaching Strategies"
var Y "Mathematics Performance"
path X1 -> X2 : 0.531
path X1 -> X3 : 0.337
path X2 -> X3 : 0.150
path X3 -> X4 : 0.209
path X1 -> Y : 0.047
path X2 -> Y : 0.130
path X3 -> Y : 0.070
path X4 -> Y : 0.772
