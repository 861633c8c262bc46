module github.com/coolrts/cool

go 1.23
